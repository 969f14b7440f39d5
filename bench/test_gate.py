"""Self-test of the micro-bench gate's judge (bench/gate.py).

    python3 -m unittest discover -s bench -p 'test_*.py'

Synthetic pairs stand in for bench runs, so the verdicts are exact.
"""

import unittest

import gate

TAGS = ["Decode", "BM_Crossover"]
NOMINAL = {"BM_FlowDecode": 100.0, "BM_Crossover/ox/20": 50.0,
           "BM_Mutation/swap/100": 20.0}


def pairs_of(drifts, change_scale=None):
    """One (base, change) pair per drift factor: both sides of a pair run
    at that pair's drift; change_scale slows chosen rows on the change
    side only."""
    change_scale = change_scale or {}
    return [({n: t * d for n, t in NOMINAL.items()},
             {n: t * d * change_scale.get(n, 1.0)
              for n, t in NOMINAL.items()})
            for d in drifts]


class JudgeTest(unittest.TestCase):
    def test_uniform_drift_across_every_pair_passes(self):
        varying = [1.0, 1.3, 1.6, 1.0, 1.3, 1.9, 1.0]
        for drifts in ([1.3] * gate.PAIRS, varying):
            verdicts, failures, new, removed = gate.judge(
                pairs_of(drifts), TAGS, 0.25)
            self.assertEqual(failures, [])
            self.assertEqual((new, removed), ([], []))
            for _, median, low, high, _ in verdicts:
                self.assertAlmostEqual(median, 1.0)
                self.assertAlmostEqual(low, 1.0)
                self.assertAlmostEqual(high, 1.0)

    def test_one_row_slower_in_every_pair_fails_and_is_named(self):
        verdicts, failures, _, _ = gate.judge(
            pairs_of([1.0, 1.3] * 3 + [1.0], {"BM_FlowDecode": 1.5}),
            TAGS, 0.25)
        self.assertEqual(failures, ["BM_FlowDecode"])
        ratio = {name: median for name, median, *_ in verdicts}
        self.assertAlmostEqual(ratio["BM_FlowDecode"], 1.5)
        self.assertAlmostEqual(ratio["BM_Crossover/ox/20"], 1.0)

    def test_a_burst_in_a_minority_of_pairs_passes(self):
        pairs = pairs_of([1.0] * gate.PAIRS)
        for base, change in pairs[:3]:
            change["BM_FlowDecode"] *= 1.9
        _, failures, _, _ = gate.judge(pairs, TAGS, 0.25)
        self.assertEqual(failures, [])

    def test_an_ungated_row_never_fails(self):
        verdicts, failures, _, _ = gate.judge(
            pairs_of([1.0] * gate.PAIRS, {"BM_Mutation/swap/100": 3.0}),
            TAGS, 0.25)
        self.assertEqual(failures, [])
        gated = {name: g for name, *_, g in verdicts}
        self.assertFalse(gated["BM_Mutation/swap/100"])
        self.assertTrue(gated["BM_FlowDecode"])

    def test_a_row_on_one_side_only_is_listed_not_gated(self):
        pairs = pairs_of([1.0] * gate.PAIRS)
        for base, change in pairs:
            change["BM_NewDecode"] = 1e9
            base["BM_OldDecode"] = 1.0
        verdicts, failures, new, removed = gate.judge(pairs, TAGS, 0.25)
        self.assertEqual(failures, [])
        self.assertEqual(new, ["BM_NewDecode"])
        self.assertEqual(removed, ["BM_OldDecode"])
        self.assertNotIn("BM_NewDecode", [v[0] for v in verdicts])


class ObsVerdictTest(unittest.TestCase):
    def test_ratio_above_tolerance_fails(self):
        legs = [(t, t * 1.05) for t in [1.0, 1.3, 0.9] * 10]
        ratio, ok = gate.obs_verdict(legs, 0.02)
        self.assertAlmostEqual(ratio, 1.05)
        self.assertFalse(ok)

    def test_ratio_within_tolerance_passes(self):
        legs = [(t, t * 1.01) for t in [1.0, 1.3, 0.9] * 10]
        legs[:3] = [(1.0, 1.9)] * 3  # a burst in a few processes
        ratio, ok = gate.obs_verdict(legs, 0.02)
        self.assertAlmostEqual(ratio, 1.01)
        self.assertTrue(ok)


if __name__ == "__main__":
    unittest.main()
