#include "src/sched/io.h"

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace psga::sched {

namespace {

/// Strips '#' comment lines and concatenates the rest for token reading.
std::istringstream tokens_of(const std::string& text) {
  std::istringstream lines(text);
  std::ostringstream kept;
  std::string line;
  while (std::getline(lines, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    kept << line << '\n';
  }
  return std::istringstream(kept.str());
}

long next_long(std::istringstream& in, const char* what) {
  long value = 0;
  if (!(in >> value)) {
    throw std::invalid_argument(std::string("expected ") + what);
  }
  return value;
}

int next_int(std::istringstream& in, const char* what) {
  const long value = next_long(in, what);
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    throw std::invalid_argument(std::string(what) + " out of range");
  }
  return static_cast<int>(value);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out << content;
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace

JobShopInstance parse_job_shop(const std::string& text) {
  std::istringstream in = tokens_of(text);
  JobShopInstance inst;
  inst.jobs = next_int(in, "job count");
  inst.machines = next_int(in, "machine count");
  if (inst.jobs <= 0 || inst.machines <= 0) {
    throw std::invalid_argument("non-positive dimensions");
  }
  inst.ops.assign(static_cast<std::size_t>(inst.jobs), {});
  for (int j = 0; j < inst.jobs; ++j) {
    auto& route = inst.ops[static_cast<std::size_t>(j)];
    route.reserve(static_cast<std::size_t>(inst.machines));
    for (int k = 0; k < inst.machines; ++k) {
      JsOperation op;
      op.machine = next_int(in, "machine id");
      op.duration = next_long(in, "duration");
      if (op.machine < 0 || op.machine >= inst.machines) {
        throw std::invalid_argument("machine id out of range");
      }
      if (op.duration < 0) throw std::invalid_argument("negative duration");
      route.push_back(op);
    }
  }
  return inst;
}

std::string format_job_shop(const JobShopInstance& inst) {
  std::ostringstream out;
  out << inst.jobs << ' ' << inst.machines << '\n';
  for (const auto& route : inst.ops) {
    for (std::size_t k = 0; k < route.size(); ++k) {
      if (k > 0) out << ' ';
      out << route[k].machine << ' ' << route[k].duration;
    }
    out << '\n';
  }
  return out.str();
}

FlowShopInstance parse_flow_shop(const std::string& text) {
  std::istringstream in = tokens_of(text);
  FlowShopInstance inst;
  inst.jobs = next_int(in, "job count");
  inst.machines = next_int(in, "machine count");
  if (inst.jobs <= 0 || inst.machines <= 0) {
    throw std::invalid_argument("non-positive dimensions");
  }
  inst.proc.assign(static_cast<std::size_t>(inst.machines),
                   std::vector<Time>(static_cast<std::size_t>(inst.jobs), 0));
  for (int m = 0; m < inst.machines; ++m) {
    for (int j = 0; j < inst.jobs; ++j) {
      const long p = next_long(in, "processing time");
      if (p < 0) throw std::invalid_argument("negative processing time");
      inst.proc[static_cast<std::size_t>(m)][static_cast<std::size_t>(j)] = p;
    }
  }
  return inst;
}

std::string format_flow_shop(const FlowShopInstance& inst) {
  std::ostringstream out;
  out << inst.jobs << ' ' << inst.machines << '\n';
  for (int m = 0; m < inst.machines; ++m) {
    for (int j = 0; j < inst.jobs; ++j) {
      if (j > 0) out << ' ';
      out << inst.processing(m, j);
    }
    out << '\n';
  }
  return out.str();
}

JobShopInstance load_job_shop(const std::string& path) {
  return parse_job_shop(read_file(path));
}

void save_job_shop(const JobShopInstance& inst, const std::string& path) {
  write_file(path, format_job_shop(inst));
}

FlowShopInstance load_flow_shop(const std::string& path) {
  return parse_flow_shop(read_file(path));
}

void save_flow_shop(const FlowShopInstance& inst, const std::string& path) {
  write_file(path, format_flow_shop(inst));
}

}  // namespace psga::sched
