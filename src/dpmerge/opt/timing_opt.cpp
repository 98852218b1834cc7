#include "dpmerge/opt/timing_opt.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>

#include "dpmerge/obs/obs.h"

namespace dpmerge::opt {

using netlist::CellVariant;
using netlist::Gate;
using netlist::GateId;
using netlist::IncrementalSta;
using netlist::NetId;
using netlist::Netlist;
using netlist::Sta;

std::string TimingOptResult::to_string() const {
  std::ostringstream os;
  os << "delay " << initial_ns << " -> " << final_ns << " ns, area "
     << initial_area << " -> " << final_area << ", " << moves << " moves, "
     << runtime_sec << " s" << (met_target ? " (target met)" : "");
  return os.str();
}

namespace {

void cross_check(const Sta& sta, const Netlist& net,
                 const IncrementalSta& ista) {
  const auto full = sta.analyze(net);
  if (std::abs(full.longest_path_ns - ista.longest_path_ns()) > 1e-9) {
    throw std::logic_error("incremental STA longest path diverged from full");
  }
  for (std::size_t i = 0; i < full.arrival.size(); ++i) {
    if (std::abs(full.arrival[i] - ista.arrivals()[i]) > 1e-9) {
      throw std::logic_error("incremental STA arrival diverged on net " +
                             std::to_string(i));
    }
  }
}

}  // namespace

TimingOptResult TimingOptimizer::optimize(Netlist& net,
                                          const TimingOptOptions& opt) const {
  obs::Span span("opt.timing");
  const std::int64_t t0 = obs::now_us();
  Sta sta(lib_);
  IncrementalSta ista(net, lib_);
  TimingOptResult res;

  res.initial_ns = ista.longest_path_ns();
  res.initial_area = sta.area_scaled(net);

  auto check = [&] {
    if (opt.cross_check_sta) cross_check(sta, net, ista);
  };

  std::set<int> locked_upsize;   // gate ids where upsizing didn't help
  std::set<int> locked_buffer;   // nets already buffer-split

  while (ista.longest_path_ns() > opt.target_ns && res.moves < opt.max_moves) {
    const auto path = ista.critical_path();

    // Candidate 1: upsize the critical-path driver with the largest
    // estimated gain (resistance drop times output load).
    GateId best_gate{-1};
    double best_gain = 0.0;
    for (NetId pn : path) {
      const GateId id = net.driver_id(pn);
      if (!id.valid()) continue;
      const Gate& d = net.gates()[static_cast<std::size_t>(id.value)];
      if (d.drive + 1 >= netlist::kDriveLevels) continue;
      if (locked_upsize.count(id.value)) continue;
      const CellVariant& cur = lib_.variant(d.type, d.drive);
      const CellVariant& up = lib_.variant(d.type, d.drive + 1);
      const double gain = (cur.drive_res_ns - up.drive_res_ns) * ista.load(pn);
      if (gain > best_gain) {
        best_gain = gain;
        best_gate = id;
      }
    }

    bool applied = false;
    if (best_gate.value >= 0) {
      const int drive =
          net.gates()[static_cast<std::size_t>(best_gate.value)].drive;
      const double before_ns = ista.longest_path_ns();
      net.set_drive(best_gate, drive + 1);
      ista.update_drive_change(best_gate);
      check();
      const double delta_ns = before_ns - ista.longest_path_ns();
      const std::int64_t delta_ps = std::llround(delta_ns * 1e3);
      const char* move = "opt.upsize.accept";
      if (delta_ns > 1e-9) {
        ++res.moves;
        applied = true;
        obs::stat_add("opt.slack_recovered_ps", delta_ps);
      } else {
        // Revert: the larger input cap hurt upstream more.
        net.set_drive(best_gate, drive);
        ista.undo_last_update();
        check();
        locked_upsize.insert(best_gate.value);
        move = "opt.upsize.reject";
      }
      obs::stat_add(move);
      obs::fr_mark(move, delta_ps);
    }

    if (!applied) {
      // Candidate 2: split the fanout of the most heavily loaded critical
      // net, keeping the critical successor directly connected and moving
      // the other readers behind a buffer.
      NetId worst{-1};
      double worst_load = opt.buffer_load_threshold;
      for (NetId pn : path) {
        if (locked_buffer.count(pn.value) || net.is_const(pn)) continue;
        const double l = ista.load(pn);
        if (l > worst_load) {
          worst_load = l;
          worst = pn;
        }
      }
      if (worst.value >= 0) {
        locked_buffer.insert(worst.value);
        // The critical successor is the gate driving the next net on the
        // path after `worst`.
        int keep_gate = -1;
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
          if (path[i] == worst) keep_gate = net.driver_id(path[i + 1]).value;
        }
        const double before_ns = ista.longest_path_ns();
        // `worst`'s readers, taken before the buffer becomes one of them.
        // One entry per pin in gate order, so a gate reading `worst` on
        // several pins appears in a run of equal entries. The timer's list
        // stays put until it is told about the buffer.
        const auto readers = ista.readers(worst);
        const NetId buffered = net.buf(worst);
        int rewired = 0;
        for (std::size_t i = 0; i < readers.size(); ++i) {
          const std::int32_t gi = readers[i];
          if (gi == keep_gate || (i > 0 && readers[i - 1] == gi)) continue;
          const Gate& g = net.gates()[static_cast<std::size_t>(gi)];
          for (std::size_t pin = 0; pin < g.inputs().size(); ++pin) {
            if (g.inputs()[pin] == worst) {
              net.set_input(GateId{gi}, static_cast<int>(pin), buffered);
              ++rewired;
            }
          }
        }
        // The buffer is the last gate: a cone update from `worst`'s driver.
        ista.update_buffer_insertion(GateId{net.gate_count() - 1});
        check();
        const double delta_ns = before_ns - ista.longest_path_ns();
        const std::int64_t delta_ps = std::llround(delta_ns * 1e3);
        const char* move = "opt.buffer.reject";
        if (rewired > 0 && delta_ns > 1e-9) {
          ++res.moves;
          applied = true;
          obs::stat_add("opt.slack_recovered_ps", delta_ps);
          move = "opt.buffer.accept";
        }
        obs::stat_add(move);
        obs::fr_mark(move, delta_ps);
        // Otherwise keep the (harmless) buffer and whatever timing
        // resulted; mark and move on.
      }
    }

    if (!applied && best_gate.value < 0) break;  // no candidates left
    if (!applied) {
      // Both move kinds exhausted without improvement this round; stop when
      // every upsize is locked and no bufferable net remains.
      bool any_left = false;
      for (NetId pn : ista.critical_path()) {
        const GateId id = net.driver_id(pn);
        if (id.valid() &&
            net.gates()[static_cast<std::size_t>(id.value)].drive + 1 <
                netlist::kDriveLevels &&
            !locked_upsize.count(id.value)) {
          any_left = true;
        }
      }
      if (!any_left) break;
    }
  }

  // Area recovery: once the target is met, try to give back the sizing on
  // cells that no longer need it.
  if (opt.recover_area && ista.longest_path_ns() <= opt.target_ns) {
    for (int gi = 0; gi < net.gate_count(); ++gi) {
      const GateId id{gi};
      for (int drive = net.gates()[static_cast<std::size_t>(gi)].drive;
           drive > 0; --drive) {
        net.set_drive(id, drive - 1);
        ista.update_drive_change(id);
        check();
        if (ista.longest_path_ns() <= opt.target_ns) {
          ++res.moves;
          obs::stat_add("opt.downsize.accept");
        } else {
          net.set_drive(id, drive);
          ista.undo_last_update();
          check();
          break;
        }
      }
    }
  }

  res.final_ns = ista.longest_path_ns();
  res.final_area = sta.area_scaled(net);
  res.met_target = res.final_ns <= opt.target_ns;
  res.runtime_sec = static_cast<double>(obs::now_us() - t0) * 1e-6;
  return res;
}

}  // namespace dpmerge::opt
