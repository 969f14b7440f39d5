#include "src/exp/report_render.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <map>
#include <span>
#include <sstream>
#include <stdexcept>

#include "src/exp/json.h"
#include "src/stats/descriptive.h"

namespace psga::exp {

namespace {

std::string fmt_double(double value) {
  std::ostringstream stream;
  stream.precision(std::numeric_limits<double>::max_digits10);
  stream << value;
  return stream.str();
}

/// Short fixed-precision rendering for the HTML tables.
std::string fmt_fixed(double value, int precision) {
  if (!(value == value)) return "nan";
  std::ostringstream stream;
  stream.setf(std::ios::fixed);
  stream.precision(precision);
  stream << value;
  return stream.str();
}

std::string csv_escape(const std::string& raw) {
  if (raw.find_first_of(",\"\n\r") == std::string::npos) return raw;
  std::string out = "\"";
  for (const char c : raw) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string html_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

ReportCell parse_cell(const Json& record) {
  ReportCell cell;
  cell.index = record.integer_or("cell", 0);
  cell.config = record.integer_or("config", 0);
  cell.rep = record.integer_or("rep", 0);
  cell.seed = record.integer_or("seed", cell.seed);
  cell.hash = record.string_or("hash", "");
  cell.instance = record.string_or("instance", "");
  cell.spec = record.string_or("spec", "");
  cell.problem = record.string_or("problem", "");
  const Json* ok = record.find("ok");
  cell.ok = ok != nullptr && ok->kind() == Json::Kind::kBool && ok->as_bool();
  cell.error = record.string_or("error", "");
  cell.best_objective = record.number_or("best_objective", 0.0);
  cell.generations = record.integer_or("generations", 0);
  cell.evaluations = record.integer_or("evaluations", cell.evaluations);
  cell.seconds = record.number_or("seconds", 0.0);
  if (const Json* axes = record.find("axes"); axes != nullptr) {
    for (const Json::Member& member : axes->members()) {
      cell.axes.emplace_back(member.first, member.second.as_string());
    }
  }
  if (const Json* cache = record.find("cache"); cache != nullptr) {
    ga::EvalCacheStats stats;
    stats.hits = cache->integer_or("hits", 0LL);
    stats.misses = cache->integer_or("misses", 0LL);
    stats.inserts = cache->integer_or("inserts", 0LL);
    stats.evictions = cache->integer_or("evictions", 0LL);
    cell.cache = stats;
  }
  return cell;
}

/// Interpolated percentile over a copy (the latency tiles; src/stats
/// keeps only median, and these are a handful of values per sweep).
double percentile_of(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank =
      p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

/// One (config, instance) row of the HTML summary table.
struct ReportGroup {
  int config = 0;
  std::string instance;
  std::vector<std::string> axis_values;
  std::vector<double> best_objectives;  ///< ok reps only
  int failed = 0;
  double mean_evaluations = 0.0;
  double cache_hits = 0.0;
  double cache_lookups = 0.0;
  bool any_cache = false;
  /// Mean best-by-generation over the ok reps, truncated to the
  /// shortest rep curve.
  std::vector<std::pair<long long, double>> mean_curve;
};

std::vector<ReportGroup> group_cells(const SweepReport& report) {
  std::vector<ReportGroup> groups;
  std::map<std::pair<int, std::string>, std::size_t> index_of;
  for (const ReportCell& cell : report.cells) {
    const std::pair<int, std::string> key{cell.config, cell.instance};
    auto it = index_of.find(key);
    if (it == index_of.end()) {
      it = index_of.emplace(key, groups.size()).first;
      ReportGroup group;
      group.config = cell.config;
      group.instance = cell.instance;
      for (const auto& [label, value] : cell.axes) {
        group.axis_values.push_back(value);
      }
      groups.push_back(std::move(group));
    }
    ReportGroup& group = groups[it->second];
    if (!cell.ok) {
      ++group.failed;
      continue;
    }
    group.best_objectives.push_back(cell.best_objective);
    group.mean_evaluations += static_cast<double>(cell.evaluations);
    if (cell.cache) {
      group.any_cache = true;
      group.cache_hits += static_cast<double>(cell.cache->hits);
      group.cache_lookups +=
          static_cast<double>(cell.cache->hits + cell.cache->misses);
    }
    if (!cell.curve.empty()) {
      if (group.mean_curve.empty() && group.best_objectives.size() == 1) {
        group.mean_curve = cell.curve;
      } else if (!group.mean_curve.empty()) {
        if (cell.curve.size() < group.mean_curve.size()) {
          group.mean_curve.resize(cell.curve.size());
        }
        for (std::size_t i = 0; i < group.mean_curve.size(); ++i) {
          group.mean_curve[i].second += cell.curve[i].second;
        }
      }
    } else {
      // A rep without generation samples (resumed cell, --every 0):
      // the averaged curve would misrepresent the group, so drop it.
      group.mean_curve.clear();
    }
  }
  for (ReportGroup& group : groups) {
    const double n = static_cast<double>(group.best_objectives.size());
    if (n > 0) {
      group.mean_evaluations /= n;
      for (auto& [generation, best] : group.mean_curve) best /= n;
    }
  }
  return groups;
}

/// The axis-value legend name of one group ("topology=ring · ta001").
std::string group_name(const SweepReport& report, const ReportGroup& group,
                       bool many_instances) {
  std::string name;
  for (std::size_t a = 0; a < group.axis_values.size(); ++a) {
    if (!name.empty()) name += ' ';
    name += (a < report.axes.size() ? report.axes[a].first : "axis") + "=" +
            group.axis_values[a];
  }
  if (many_instances && !group.instance.empty()) {
    if (!name.empty()) name += " · ";
    name += group.instance;
  }
  if (name.empty()) name = "config " + std::to_string(group.config);
  return name;
}

const char* kPalette[] = {"#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
                         "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
                         "#bcbd22", "#17becf"};
constexpr std::size_t kPaletteSize = sizeof kPalette / sizeof kPalette[0];

/// SVG convergence chart: one mean best-by-generation polyline per
/// group that has curve samples. Returns "" when nothing is plottable.
std::string render_chart(const SweepReport& report,
                         const std::vector<ReportGroup>& groups,
                         bool many_instances) {
  double x_min = std::numeric_limits<double>::infinity();
  double x_max = -x_min;
  double y_min = x_min;
  double y_max = -x_min;
  bool any = false;
  for (const ReportGroup& group : groups) {
    for (const auto& [generation, best] : group.mean_curve) {
      any = true;
      x_min = std::min(x_min, static_cast<double>(generation));
      x_max = std::max(x_max, static_cast<double>(generation));
      y_min = std::min(y_min, best);
      y_max = std::max(y_max, best);
    }
  }
  if (!any) return "";
  if (x_max <= x_min) x_max = x_min + 1;
  if (y_max <= y_min) y_max = y_min + 1;
  const double width = 720, height = 300;
  const double left = 64, right = 12, top = 12, bottom = 32;
  const auto sx = [&](double x) {
    return left + (x - x_min) / (x_max - x_min) * (width - left - right);
  };
  const auto sy = [&](double y) {
    return height - bottom -
           (y - y_min) / (y_max - y_min) * (height - top - bottom);
  };
  std::ostringstream svg;
  svg << "<svg viewBox=\"0 0 " << width << " " << height
      << "\" xmlns=\"http://www.w3.org/2000/svg\" role=\"img\">\n";
  svg << "<rect x=\"" << left << "\" y=\"" << top << "\" width=\""
      << width - left - right << "\" height=\"" << height - top - bottom
      << "\" fill=\"none\" stroke=\"#ccc\"/>\n";
  // Min/max tick labels on both axes.
  svg << "<text x=\"" << left - 6 << "\" y=\"" << sy(y_max) + 4
      << "\" text-anchor=\"end\" class=\"tick\">" << fmt_fixed(y_max, 1)
      << "</text>\n";
  svg << "<text x=\"" << left - 6 << "\" y=\"" << sy(y_min) + 4
      << "\" text-anchor=\"end\" class=\"tick\">" << fmt_fixed(y_min, 1)
      << "</text>\n";
  svg << "<text x=\"" << sx(x_min) << "\" y=\"" << height - bottom + 16
      << "\" text-anchor=\"middle\" class=\"tick\">"
      << static_cast<long long>(x_min) << "</text>\n";
  svg << "<text x=\"" << sx(x_max) << "\" y=\"" << height - bottom + 16
      << "\" text-anchor=\"middle\" class=\"tick\">"
      << static_cast<long long>(x_max) << "</text>\n";
  svg << "<text x=\"" << (left + width - right) / 2 << "\" y=\""
      << height - 4 << "\" text-anchor=\"middle\" class=\"tick\">"
      << "generation</text>\n";
  std::size_t color = 0;
  for (const ReportGroup& group : groups) {
    if (group.mean_curve.empty()) continue;
    svg << "<polyline fill=\"none\" stroke=\""
        << kPalette[color % kPaletteSize] << "\" stroke-width=\"1.5\" points=\"";
    for (const auto& [generation, best] : group.mean_curve) {
      svg << fmt_fixed(sx(static_cast<double>(generation)), 1) << ','
          << fmt_fixed(sy(best), 1) << ' ';
    }
    svg << "\"><title>" << html_escape(group_name(report, group,
                                                  many_instances))
        << "</title></polyline>\n";
    ++color;
  }
  svg << "</svg>\n";
  // Legend: one swatch per plotted group.
  std::ostringstream legend;
  legend << "<p class=\"legend\">";
  color = 0;
  for (const ReportGroup& group : groups) {
    if (group.mean_curve.empty()) continue;
    legend << "<span><span class=\"swatch\" style=\"background:"
           << kPalette[color % kPaletteSize] << "\"></span>"
           << html_escape(group_name(report, group, many_instances))
           << "</span> ";
    ++color;
  }
  legend << "</p>\n";
  return svg.str() + legend.str();
}

}  // namespace

std::vector<SweepReport> parse_telemetry(std::istream& in) {
  std::vector<SweepReport> reports;
  // Index, not pointer: reports reallocates as sections appear.
  std::size_t current = static_cast<std::size_t>(-1);
  std::map<int, std::vector<std::pair<long long, double>>> curves;
  const auto section = [&](const std::string& name) {
    for (std::size_t i = 0; i < reports.size(); ++i) {
      if (reports[i].sweep == name) return i;
    }
    SweepReport report;
    report.sweep = name;
    reports.push_back(std::move(report));
    return reports.size() - 1;
  };
  const auto ensure_current = [&] {
    if (current == static_cast<std::size_t>(-1)) current = section("sweep");
  };
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Json record;
    try {
      record = Json::parse(line);
    } catch (const std::exception&) {
      continue;  // SIGKILL tail or foreign line — skip, don't fail
    }
    if (!record.is_object()) continue;
    const std::string event = record.string_or("event", "");
    // A record whose fields do not read (a string seed, a count beyond
    // its type) is a malformed line too. Every branch reads its fields
    // before it touches a report, so a skipped record leaves no trace.
    try {
      if (event == "sweep_begin") {
        const long long declared_cells = record.integer_or("cells", 0LL);
        // A resumed file re-begins the same sweep: merge, don't duplicate.
        current = section(record.string_or("sweep", "sweep"));
        curves.clear();
        SweepReport& report = reports[current];
        report.declared_cells = declared_cells;
        report.reference = record.number_or("reference", report.reference);
        if (const Json* axes = record.find("axes"); axes != nullptr) {
          report.axes.clear();
          for (const Json& axis : axes->items()) {
            std::vector<std::string> values;
            if (const Json* vs = axis.find("values"); vs != nullptr) {
              for (const Json& v : vs->items()) {
                values.push_back(v.as_string());
              }
            }
            report.axes.emplace_back(axis.string_or("label", ""),
                                     std::move(values));
          }
        }
      } else if (event == "generation") {
        const Json* cell = record.find("cell");
        if (cell == nullptr) continue;  // job-keyed service stream
        const int index = cell->as_int();
        const long long generation = record.integer_or("generation", 0LL);
        ensure_current();
        curves[index].emplace_back(generation, record.number_or("best", 0.0));
      } else if (event == "metrics") {
        // Joined to the already-parsed cell record (the runner writes the
        // metrics line right after it, from the same lane).
        const Json* cell_index = record.find("cell");
        const Json* metrics = record.find("metrics");
        if (cell_index == nullptr || metrics == nullptr) continue;
        const int index = cell_index->as_int();
        const Json* counters = metrics->find("counters");
        const Json* decoded = counters != nullptr
                                  ? counters->find("eval.decoded_genomes")
                                  : nullptr;
        const std::uint64_t decoded_genomes =
            decoded != nullptr ? decoded->as_u64() : 0;
        ensure_current();
        SweepReport& report = reports[current];
        const auto it = std::find_if(
            report.cells.begin(), report.cells.end(),
            [&](const ReportCell& c) { return c.index == index; });
        if (it == report.cells.end()) continue;
        it->has_metrics = true;
        if (decoded != nullptr) it->decoded_genomes = decoded_genomes;
        if (const Json* histograms = metrics->find("histograms")) {
          if (const Json* decode = histograms->find("eval.decode_ns")) {
            it->decode_p50_ns = decode->number_or("p50", 0.0);
            it->decode_p95_ns = decode->number_or("p95", 0.0);
            it->decode_p99_ns = decode->number_or("p99", 0.0);
          }
        }
      } else if (event == "cell") {
        ReportCell cell = parse_cell(record);
        ensure_current();
        if (const auto it = curves.find(cell.index); it != curves.end()) {
          cell.curve = std::move(it->second);
          curves.erase(it);
        }
        SweepReport& report = reports[current];
        const auto existing = std::find_if(
            report.cells.begin(), report.cells.end(),
            [&](const ReportCell& c) { return c.index == cell.index; });
        if (existing != report.cells.end()) {
          *existing = std::move(cell);  // last record wins
        } else {
          report.cells.push_back(std::move(cell));
        }
      }
    } catch (const std::invalid_argument&) {
      continue;
    }
  }
  for (SweepReport& report : reports) {
    std::sort(report.cells.begin(), report.cells.end(),
              [](const ReportCell& a, const ReportCell& b) {
                return a.index < b.index;
              });
  }
  return reports;
}

std::string render_csv(const std::vector<SweepReport>& reports) {
  std::ostringstream out;
  bool first = true;
  for (const SweepReport& report : reports) {
    if (!first) out << "\n";
    first = false;
    out << "# sweep " << report.sweep << "\n";
    out << "sweep,cell,config,instance,rep,seed,hash";
    for (const auto& [label, values] : report.axes) {
      out << ',' << csv_escape(label);
    }
    out << ",ok,best_objective,generations,evaluations,seconds"
           ",cache_hits,cache_misses,cache_hit_rate,error,spec\n";
    for (const ReportCell& cell : report.cells) {
      out << csv_escape(report.sweep) << ',' << cell.index << ','
          << cell.config << ',' << csv_escape(cell.instance) << ','
          << cell.rep << ',' << cell.seed << ',' << cell.hash;
      // Axis columns follow the sweep_begin axis order; the cell's own
      // axes{} map is keyed by label, so look each one up.
      for (const auto& [label, values] : report.axes) {
        std::string value;
        for (const auto& [cell_label, cell_value] : cell.axes) {
          if (cell_label == label) value = cell_value;
        }
        out << ',' << csv_escape(value);
      }
      out << ',' << (cell.ok ? "true" : "false") << ','
          << fmt_double(cell.best_objective) << ',' << cell.generations
          << ',' << cell.evaluations << ',' << fmt_double(cell.seconds);
      if (cell.cache) {
        const double lookups =
            static_cast<double>(cell.cache->hits + cell.cache->misses);
        out << ',' << cell.cache->hits << ',' << cell.cache->misses << ','
            << (lookups > 0
                    ? fmt_fixed(static_cast<double>(cell.cache->hits) /
                                    lookups,
                                4)
                    : "0");
      } else {
        out << ",,,";
      }
      out << ',' << csv_escape(cell.error) << ',' << csv_escape(cell.spec)
          << "\n";
    }
  }
  return out.str();
}

std::string render_html(const std::vector<SweepReport>& reports) {
  std::ostringstream out;
  out << "<!doctype html>\n<html lang=\"en\">\n<head>\n"
         "<meta charset=\"utf-8\">\n<title>psga sweep report</title>\n"
         "<style>\n"
         "body{font:14px/1.5 system-ui,sans-serif;margin:2rem auto;"
         "max-width:60rem;padding:0 1rem;color:#222}\n"
         "h1{font-size:1.4rem}h2{font-size:1.15rem;margin-top:2rem;"
         "border-bottom:1px solid #ddd;padding-bottom:.25rem}\n"
         "table{border-collapse:collapse;margin:.75rem 0}\n"
         "th,td{border:1px solid #ddd;padding:.25rem .6rem;"
         "text-align:right}\n"
         "th{background:#f5f5f5}td.t,th.t{text-align:left}\n"
         "p.meta{color:#555}\n"
         ".tiles{display:flex;gap:.6rem;flex-wrap:wrap;margin:.75rem 0}\n"
         ".tile{border:1px solid #ddd;border-radius:4px;"
         "padding:.4rem .7rem;background:#fafafa;text-align:center}\n"
         ".tile b{display:block;font-size:1.15rem}\n"
         ".tile span{color:#555;font-size:12px}\n"
         ".tick{font-size:11px;fill:#555}\n"
         ".legend span{margin-right:1rem;white-space:nowrap}\n"
         ".swatch{display:inline-block;width:.8em;height:.8em;"
         "margin-right:.3em;border-radius:2px}\n"
         ".fail{color:#b00}\n"
         "</style>\n</head>\n<body>\n<h1>psga sweep report</h1>\n";
  for (const SweepReport& report : reports) {
    const std::vector<ReportGroup> groups = group_cells(report);
    bool many_instances = false;
    bool any_cache = false;
    bool any_failed = false;
    for (const ReportGroup& group : groups) {
      if (group.instance != groups.front().instance) many_instances = true;
      if (group.any_cache) any_cache = true;
      if (group.failed > 0) any_failed = true;
    }
    const bool with_rpd = report.reference > 0;
    out << "<section>\n<h2>" << html_escape(report.sweep) << "</h2>\n";
    out << "<p class=\"meta\">" << report.cells.size() << " finished cell"
        << (report.cells.size() == 1 ? "" : "s");
    if (report.declared_cells > 0) {
      out << " of " << report.declared_cells << " declared";
    }
    if (with_rpd) out << ", reference " << fmt_double(report.reference);
    out << "</p>\n";
    // Latency and throughput tiles over the ok cells: cell wall-clock
    // percentiles, evaluation/decode totals (decodes = evaluations minus
    // cache hits — a hit returns the memoized objective without a
    // decode), cache hit rate, and decode-kernel percentiles when the
    // telemetry carries `metrics` records.
    {
      std::vector<double> cell_seconds;
      long long evaluations = 0, hits = 0, lookups = 0;
      std::vector<double> decode_p95;
      for (const ReportCell& cell : report.cells) {
        if (!cell.ok) continue;
        cell_seconds.push_back(cell.seconds);
        evaluations += cell.evaluations;
        if (cell.cache) {
          hits += cell.cache->hits;
          lookups += cell.cache->hits + cell.cache->misses;
        }
        if (cell.has_metrics && cell.decode_p95_ns > 0) {
          decode_p95.push_back(cell.decode_p95_ns);
        }
      }
      if (!cell_seconds.empty()) {
        const auto tile = [&](const std::string& value, const char* label) {
          out << "<div class=\"tile\"><b>" << value << "</b><span>" << label
              << "</span></div>\n";
        };
        out << "<div class=\"tiles\">\n";
        tile(fmt_fixed(percentile_of(cell_seconds, 50.0), 3) + " s",
             "cell p50");
        tile(fmt_fixed(percentile_of(cell_seconds, 95.0), 3) + " s",
             "cell p95");
        tile(fmt_fixed(percentile_of(cell_seconds, 99.0), 3) + " s",
             "cell p99");
        tile(std::to_string(evaluations), "evaluations");
        tile(std::to_string(evaluations - hits), "decodes");
        tile(lookups > 0
                 ? fmt_fixed(100.0 * static_cast<double>(hits) /
                                 static_cast<double>(lookups),
                             1) +
                       " %"
                 : std::string("-"),
             "cache hit rate");
        if (!decode_p95.empty()) {
          tile(fmt_fixed(stats::mean(std::span<const double>(decode_p95)) /
                             1000.0,
                         1) +
                   " µs",
               "decode p95 (mean)");
        }
        out << "</div>\n";
      }
    }
    out << "<table>\n<tr>";
    for (const auto& [label, values] : report.axes) {
      out << "<th class=\"t\">" << html_escape(label) << "</th>";
    }
    if (many_instances) out << "<th class=\"t\">instance</th>";
    out << "<th>reps</th><th>best</th><th>mean</th><th>stddev</th>";
    if (with_rpd) out << "<th>mean RPD (%)</th>";
    out << "<th>mean evals</th>";
    if (any_cache) out << "<th>cache hit %</th>";
    if (any_failed) out << "<th>failed</th>";
    out << "</tr>\n";
    for (const ReportGroup& group : groups) {
      out << "<tr>";
      for (const std::string& value : group.axis_values) {
        out << "<td class=\"t\">" << html_escape(value) << "</td>";
      }
      if (many_instances) {
        out << "<td class=\"t\">" << html_escape(group.instance) << "</td>";
      }
      const std::span<const double> xs(group.best_objectives);
      const std::size_t n = group.best_objectives.size();
      out << "<td>" << n << "</td>";
      if (n == 0) {
        out << "<td>-</td><td>-</td><td>-</td>";
        if (with_rpd) out << "<td>-</td>";
        out << "<td>-</td>";
      } else {
        out << "<td>" << fmt_fixed(stats::min_of(xs), 0) << "</td>"
            << "<td>" << fmt_fixed(stats::mean(xs), 1) << "</td>"
            << "<td>" << (n > 1 ? fmt_fixed(stats::stddev(xs), 1) : "-")
            << "</td>";
        if (with_rpd) {
          out << "<td>" << fmt_fixed(stats::mean_rpd(xs, report.reference), 3)
              << "</td>";
        }
        out << "<td>" << fmt_fixed(group.mean_evaluations, 0) << "</td>";
      }
      if (any_cache) {
        out << "<td>"
            << (group.cache_lookups > 0
                    ? fmt_fixed(100.0 * group.cache_hits /
                                    group.cache_lookups,
                                1)
                    : std::string("-"))
            << "</td>";
      }
      if (any_failed) {
        out << "<td class=\"fail\">" << group.failed << "</td>";
      }
      out << "</tr>\n";
    }
    out << "</table>\n";
    out << render_chart(report, groups, many_instances);
    out << "</section>\n";
  }
  out << "</body>\n</html>\n";
  return out.str();
}

}  // namespace psga::exp
