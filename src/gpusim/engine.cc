#include "gpusim/engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/timer.h"

namespace multigrain::sim {

namespace {
constexpr double kInfSpan = std::numeric_limits<double>::infinity();
}  // namespace

double
SimResult::span(const std::string &prefix) const
{
    double start = kInfSpan;
    double end = 0;
    for (const auto &k : kernels) {
        if (k.name.rfind(prefix, 0) == 0) {
            start = std::min(start, k.start_us);
            end = std::max(end, k.end_us);
        }
    }
    return end > start ? end - start : 0;
}

double
SimResult::finish_us(const std::string &prefix) const
{
    double end = 0;
    for (const auto &k : kernels) {
        if (k.name.rfind(prefix, 0) == 0) {
            end = std::max(end, k.end_us);
        }
    }
    return end;
}

double
SimResult::dram_bytes_for(const std::string &prefix) const
{
    double bytes = 0;
    for (const auto &k : kernels) {
        if (k.name.rfind(prefix, 0) == 0) {
            bytes += k.work.dram_bytes();
        }
    }
    return bytes;
}

const KernelStats *
SimResult::find(const std::string &name) const
{
    for (const auto &k : kernels) {
        if (k.name == name) {
            return &k;
        }
    }
    return nullptr;
}

GpuSim::GpuSim(DeviceSpec device) : device_(std::move(device))
{
    MG_CHECK(device_.num_sms > 0) << "device needs at least one SM";
}

namespace {

constexpr int kWaves = 8;
constexpr double kInf = std::numeric_limits<double>::infinity();

enum Component : int {
    kCompTensor = 0,   ///< Per-SM tensor pipe; drains tensor_flops.
    kCompCuda = 1,     ///< Per-SM CUDA pipe; drains cuda_flops.
    kCompDram = 2,     ///< Global DRAM bandwidth; drains dram bytes.
    kCompL2 = 3,       ///< Global L2 bandwidth; drains dram + l2 bytes.
    kCompMemSm = 4,    ///< Per-SM memory burst cap; drains dram + l2 bytes.
    kNumComponents = 5,
};

/// One progress clock: a resource shared equally among its consumers.
/// Consumers are exactly the outstanding thresholds (one per component of
/// each resident block using the resource).
struct Clock {
    double rate = 0;  ///< Full resource rate, progress units per us.
    double value = 0;
    double last_t = 0;
    /// Min-heap of (threshold progress value, unit*4 + component).
    std::priority_queue<std::pair<double, std::int64_t>,
                        std::vector<std::pair<double, std::int64_t>>,
                        std::greater<>>
        thresholds;

    void advance(double t)
    {
        if (!thresholds.empty()) {
            value += (t - last_t) * rate /
                     static_cast<double>(thresholds.size());
        }
        last_t = t;
    }

    /// Time at which the smallest threshold will be crossed under the
    /// current consumer count; infinity if idle.
    double next_crossing() const
    {
        if (thresholds.empty() || rate <= 0) {
            return kInf;
        }
        const double gap = thresholds.top().first - value;
        if (gap <= 0) {
            return last_t;
        }
        return last_t + gap * static_cast<double>(thresholds.size()) / rate;
    }
};

struct Unit {
    int kernel = -1;
    int sm = -1;
    index_t tb_count = 0;
    int pending = 0;
    double admit_t = 0;
    TbWork work;  ///< Total work of the chunk (group work * tb_count).
};

struct SmState {
    int slots = 0;
    int threads = 0;
    int smem = 0;
    int regs = 0;
};

struct KernelRun {
    std::size_t group_idx = 0;
    index_t group_off = 0;
    index_t total_tbs = 0;
    index_t emitted = 0;
    index_t completed = 0;
    index_t max_chunk = 1;
    int occ = 1;
    bool ready = false;
    bool done = false;
    double ready_t = kInf;
    double start_t = kInf;
    double end_t = 0;
    double unit_busy = 0;
};

/// A queued event. Events pop in (t, kind, seq) order: kind 0 (clock
/// crossing, kept in PredictionHeap) before 1 (kernel ready), 2 (unit
/// activation) and 3 (private deadline) at one instant, then by push
/// order. The main heap holds kinds 1-3 only.
struct Event {
    double t = 0;
    std::uint64_t seq = 0;  ///< Tie-break for determinism.
    int kind = 0;
    int id = 0;

    friend bool operator>(const Event &a, const Event &b)
    {
        if (a.t != b.t) {
            return a.t > b.t;
        }
        if (a.kind != b.kind) {
            return a.kind > b.kind;
        }
        return a.seq > b.seq;
    }
};

/// Indexed binary min-heap of per-clock crossing predictions keyed by
/// (t, seq). Each clock holds at most one prediction: setting a new one
/// replaces the old in place, so a superseded prediction is never queued
/// and never popped.
class PredictionHeap {
  public:
    explicit PredictionHeap(std::size_t clocks)
        : keys_(clocks), pos_(clocks, -1)
    {
        heap_.reserve(clocks);
    }

    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }
    /// The clock with the earliest prediction, and that prediction's time.
    int top() const { return heap_.front(); }
    double top_t() const { return keys_[id(heap_.front())].t; }

    /// Sets clock `c`'s prediction to (t, seq), replacing any previous one.
    void set(int c, double t, std::uint64_t seq)
    {
        const Key old = keys_[id(c)];
        keys_[id(c)] = {t, seq};
        if (pos_[id(c)] < 0) {
            pos_[id(c)] = static_cast<int>(heap_.size());
            heap_.push_back(c);
            sift_up(pos_[id(c)]);
        } else if (less(keys_[id(c)], old)) {
            sift_up(pos_[id(c)]);
        } else {
            sift_down(pos_[id(c)]);
        }
    }

    /// Drops clock `c`'s prediction, if it has one.
    void erase(int c)
    {
        const int i = pos_[id(c)];
        if (i < 0) {
            return;
        }
        pos_[id(c)] = -1;
        const int last = heap_.back();
        heap_.pop_back();
        if (last == c) {
            return;
        }
        place(i, last);
        sift_up(i);
        sift_down(pos_[id(last)]);
    }

  private:
    struct Key {
        double t = 0;
        std::uint64_t seq = 0;
    };

    static std::size_t id(int c) { return static_cast<std::size_t>(c); }
    static bool less(const Key &a, const Key &b)
    {
        return a.t != b.t ? a.t < b.t : a.seq < b.seq;
    }
    bool less_at(int i, int j) const
    {
        return less(keys_[id(heap_[id(i)])], keys_[id(heap_[id(j)])]);
    }
    void place(int i, int c)
    {
        heap_[id(i)] = c;
        pos_[id(c)] = i;
    }
    void sift_up(int i)
    {
        while (i > 0 && less_at(i, (i - 1) / 2)) {
            const int parent = (i - 1) / 2;
            const int c = heap_[id(i)];
            place(i, heap_[id(parent)]);
            place(parent, c);
            i = parent;
        }
    }
    void sift_down(int i)
    {
        const int n = static_cast<int>(heap_.size());
        while (true) {
            int least = i;
            for (const int child : {2 * i + 1, 2 * i + 2}) {
                if (child < n && less_at(child, least)) {
                    least = child;
                }
            }
            if (least == i) {
                return;
            }
            const int c = heap_[id(i)];
            place(i, heap_[id(least)]);
            place(least, c);
            i = least;
        }
    }

    std::vector<Key> keys_;  ///< By clock id; valid while pos_ >= 0.
    std::vector<int> pos_;   ///< Heap index by clock id; -1 if none.
    std::vector<int> heap_;  ///< Clock ids.
};

/// A segment simulated inside one run(): what ran between two quiescent
/// points, in the local time of the first. Kernel stats stay in the
/// KernelRun of each kernel listed.
struct Segment {
    /// The pending ready kernels at entry in pop order, each with the
    /// local time of the finish that released it.
    std::vector<std::pair<int, double>> entry;
    std::vector<int> finishes;  ///< Kernels run, in finish order.
    double end = 0;             ///< Local time of the closing quiescent point.
};

/// Hash of an entry up to a kernel-index offset: its length, each
/// kernel's index relative to the first, and each origin's bits.
std::uint64_t
entry_key(const std::vector<std::pair<int, double>> &entry)
{
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ULL;
    };
    mix(entry.size());
    for (const auto &[kernel, origin] : entry) {
        mix(static_cast<std::uint64_t>(kernel - entry.front().first));
        mix(std::bit_cast<std::uint64_t>(origin));
    }
    return h;
}

}  // namespace

SimResult
GpuSim::run()
{
    MG_CHECK(!ran_) << "GpuSim::run() may only be called once";
    ran_ = true;
    const ScopedTimer timer("gpusim.run");
    EngineCounters counters;

    const int num_sms = device_.num_sms;
    const std::vector<LaunchGraphNode> &nodes = program_.nodes();
    const int num_kernels = static_cast<int>(nodes.size());

    // ---- Clocks: [0] global DRAM, [1] global L2;
    //      per SM s at 2+3s: tensor pipe, CUDA pipe, SM memory burst.
    std::vector<Clock> clocks(static_cast<std::size_t>(2 + 3 * num_sms));
    clocks[0].rate = device_.dram_bytes_per_us();
    clocks[1].rate = device_.l2_bytes_per_us();
    for (int s = 0; s < num_sms; ++s) {
        clocks[static_cast<std::size_t>(2 + 3 * s + 0)].rate =
            device_.sm_tensor_flops_per_us();
        clocks[static_cast<std::size_t>(2 + 3 * s + 1)].rate =
            device_.sm_cuda_flops_per_us();
        clocks[static_cast<std::size_t>(2 + 3 * s + 2)].rate =
            device_.sm_dram_bytes_per_us();
    }
    std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
    PredictionHeap predictions(clocks.size());
    std::uint64_t seq = 0;

    // Replaces the clock's prediction; the seq it consumes keeps every
    // later tie-break where it would be had the old one stayed queued.
    const auto push_clock_prediction = [&](int clock_id) {
        Clock &c = clocks[static_cast<std::size_t>(clock_id)];
        const double t = c.next_crossing();
        if (t < kInf) {
            predictions.set(clock_id, t, seq++);
            ++counters.predictions;
        } else {
            predictions.erase(clock_id);
        }
    };

    // ---- Kernel runtime state.
    std::vector<KernelRun> runs(static_cast<std::size_t>(num_kernels));
    std::vector<int> unresolved(static_cast<std::size_t>(num_kernels), 0);
    std::vector<std::vector<int>> children(
        static_cast<std::size_t>(num_kernels));
    for (int k = 0; k < num_kernels; ++k) {
        const LaunchGraphNode &node = nodes[static_cast<std::size_t>(k)];
        unresolved[static_cast<std::size_t>(k)] =
            static_cast<int>(node.deps.size());
        for (const int dep : node.deps) {
            MG_CHECK(dep >= 0 && dep < k) << "kernel dependency cycle";
            children[static_cast<std::size_t>(dep)].push_back(k);
        }
        KernelRun &run = runs[static_cast<std::size_t>(k)];
        run.total_tbs = node.launch.num_tbs();
        run.occ = occupancy_per_sm(device_, node.launch.shape);
        const index_t slots =
            static_cast<index_t>(num_sms) * run.occ * kWaves;
        run.max_chunk = std::max<index_t>(1, run.total_tbs / slots);
    }

    std::vector<SmState> sms(static_cast<std::size_t>(num_sms));
    std::vector<Unit> units;
    std::vector<int> free_units;

    std::vector<int> issuable;  // Ready kernels with unemitted blocks.
    std::size_t issue_cursor = 0;

    int kernels_done = 0;

    // ---- Segments. Times are local to the current segment, which began
    // at absolute time `base`; each kernel keeps the base of the segment
    // it ran in. A queued ready event keeps the local time of the finish
    // that released it, from which a rebase re-times it.
    double base = 0;
    std::vector<double> kernel_base(static_cast<std::size_t>(num_kernels), 0);
    std::vector<double> ready_origin(static_cast<std::size_t>(num_kernels),
                                     0);
    std::vector<Segment> segments;
    int recording = -1;  // The segment being simulated, if any.

    const auto fits = [&](const SmState &sm, const TbShape &shape) {
        if (sm.slots + 1 > device_.max_tb_per_sm) {
            return false;
        }
        if (sm.threads + shape.threads > device_.max_threads_per_sm) {
            return false;
        }
        if (sm.smem + shape.smem_bytes > device_.smem_per_sm_bytes) {
            return false;
        }
        if (sm.regs + shape.threads * shape.regs_per_thread >
            device_.regs_per_sm) {
            return false;
        }
        return true;
    };

    const auto remove_issuable = [&](int kernel) {
        for (std::size_t i = 0; i < issuable.size(); ++i) {
            if (issuable[i] == kernel) {
                issuable.erase(issuable.begin() +
                               static_cast<std::ptrdiff_t>(i));
                if (issue_cursor > i) {
                    --issue_cursor;
                }
                return;
            }
        }
    };

    /// Admits one chunk of some issuable kernel onto SM `sm_id`.
    /// Returns true if a chunk was placed.
    const auto try_admit_one = [&](int sm_id, double now) -> bool {
        if (issuable.empty()) {
            return false;
        }
        SmState &sm = sms[static_cast<std::size_t>(sm_id)];
        for (std::size_t step = 0; step < issuable.size(); ++step) {
            const std::size_t pos =
                (issue_cursor + step) % issuable.size();
            const int k = issuable[pos];
            const LaunchGraphNode &node = nodes[static_cast<std::size_t>(k)];
            KernelRun &run = runs[static_cast<std::size_t>(k)];
            // The block must fit beside everything already resident on
            // this SM; the kernel's own occupancy follows from that.
            if (!fits(sm, node.launch.shape)) {
                continue;
            }
            // Pop a chunk from the current group.
            const TbGroup &group = node.launch.tbs[run.group_idx];
            const index_t take = std::min(run.max_chunk,
                                          group.count - run.group_off);
            int unit_id;
            if (!free_units.empty()) {
                unit_id = free_units.back();
                free_units.pop_back();
            } else {
                unit_id = static_cast<int>(units.size());
                units.emplace_back();
            }
            Unit &unit = units[static_cast<std::size_t>(unit_id)];
            unit.kernel = k;
            unit.sm = sm_id;
            unit.tb_count = take;
            unit.pending = 0;
            unit.admit_t = now;
            ++counters.units;
            unit.work.tensor_flops =
                group.work.tensor_flops * static_cast<double>(take);
            unit.work.cuda_flops =
                group.work.cuda_flops * static_cast<double>(take);
            unit.work.dram_read_bytes =
                group.work.dram_read_bytes * static_cast<double>(take);
            unit.work.dram_write_bytes =
                group.work.dram_write_bytes * static_cast<double>(take);
            unit.work.l2_bytes =
                group.work.l2_bytes * static_cast<double>(take);

            sm.slots += 1;
            sm.threads += node.launch.shape.threads;
            sm.smem += node.launch.shape.smem_bytes;
            sm.regs +=
                node.launch.shape.threads * node.launch.shape.regs_per_thread;

            run.emitted += take;
            run.group_off += take;
            if (run.group_off == group.count) {
                run.group_off = 0;
                ++run.group_idx;
            }
            run.start_t = std::min(run.start_t, now);
            if (run.emitted == run.total_tbs) {
                remove_issuable(k);
            } else {
                issue_cursor = (pos + 1) % std::max<std::size_t>(
                                              1, issuable.size());
            }

            const double activate_t =
                now + device_.tb_overhead_us * static_cast<double>(take);
            events.push({activate_t, seq++, 2, unit_id});
            return true;
        }
        return false;
    };

    // Fill SMs least-loaded-first (the hardware work distributor steers
    // blocks to the emptiest SM, which is what lets a second stream land
    // on idle SMs instead of piling onto busy ones).
    std::vector<int> sm_order(static_cast<std::size_t>(num_sms));
    const auto fill_all_sms = [&](double now) {
        bool admitted = true;
        while (admitted) {
            admitted = false;
            for (int s = 0; s < num_sms; ++s) {
                sm_order[static_cast<std::size_t>(s)] = s;
            }
            std::stable_sort(sm_order.begin(), sm_order.end(),
                             [&](int a, int b) {
                                 return sms[static_cast<std::size_t>(a)]
                                            .slots <
                                        sms[static_cast<std::size_t>(b)]
                                            .slots;
                             });
            for (const int s : sm_order) {
                if (try_admit_one(s, now)) {
                    admitted = true;
                }
            }
        }
    };

    const auto push_ready = [&](int k, double origin) {
        ready_origin[static_cast<std::size_t>(k)] = origin;
        events.push({origin + device_.kernel_launch_us, seq++, 1, k});
    };

    const auto finish_kernel = [&](int k, double now) {
        KernelRun &run = runs[static_cast<std::size_t>(k)];
        run.done = true;
        run.end_t = now;
        if (run.start_t == kInf) {
            run.start_t = now;  // Empty kernel: zero-duration at ready time.
        }
        kernel_base[static_cast<std::size_t>(k)] = base;
        ++kernels_done;
        segments[static_cast<std::size_t>(recording)].finishes.push_back(k);
        for (const int child : children[static_cast<std::size_t>(k)]) {
            if (--unresolved[static_cast<std::size_t>(child)] == 0) {
                push_ready(child, now);
            }
        }
    };

    const auto complete_unit = [&](int unit_id, double now) {
        Unit &unit = units[static_cast<std::size_t>(unit_id)];
        const int k = unit.kernel;
        const LaunchGraphNode &node = nodes[static_cast<std::size_t>(k)];
        KernelRun &run = runs[static_cast<std::size_t>(k)];
        SmState &sm = sms[static_cast<std::size_t>(unit.sm)];
        sm.slots -= 1;
        sm.threads -= node.launch.shape.threads;
        sm.smem -= node.launch.shape.smem_bytes;
        sm.regs -=
            node.launch.shape.threads * node.launch.shape.regs_per_thread;
        run.completed += unit.tb_count;
        run.unit_busy += now - unit.admit_t;
        const int freed_sm = unit.sm;
        unit.kernel = -1;
        free_units.push_back(unit_id);
        if (run.completed == run.total_tbs &&
            run.emitted == run.total_tbs) {
            finish_kernel(k, now);
        }
        while (try_admit_one(freed_sm, now)) {
        }
    };

    const auto activate_unit = [&](int unit_id, double now) {
        Unit &unit = units[static_cast<std::size_t>(unit_id)];
        const double comps[kNumComponents] = {
            unit.work.tensor_flops, unit.work.cuda_flops,
            unit.work.dram_bytes(), unit.work.mem_bytes(),
            unit.work.mem_bytes()};
        // Latency-bound cap: a lone block cannot saturate a pipe. It adds
        // a fixed per-component deadline at the capped private rate; the
        // component is done when both the shared progress clock crosses
        // *and* the private deadline passes. Only the deadline that pops
        // last, the (t, seq) maximum, is queued: an earlier one could
        // never complete the unit. Each still consumes its seq.
        const LaunchGraphNode &node =
            nodes[static_cast<std::size_t>(unit.kernel)];
        double cap = 1.0;
        if (device_.unit_saturation > 0) {
            cap = std::min(1.0, device_.unit_saturation *
                                    node.launch.shape.threads /
                                    device_.max_threads_per_sm);
        }
        if (cap < 1.0) {
            const double private_rates[kNumComponents] = {
                device_.sm_tensor_flops_per_us() * cap,
                device_.sm_cuda_flops_per_us() * cap,
                0,  // DRAM handled through the SM burst deadline below.
                0,
                device_.sm_dram_bytes_per_us() * cap};
            Event last{-kInf, 0, 3, unit_id};
            for (int comp = 0; comp < kNumComponents; ++comp) {
                if (comps[comp] <= 0 || private_rates[comp] <= 0) {
                    continue;
                }
                const double deadline =
                    now + comps[comp] / private_rates[comp];
                const std::uint64_t deadline_seq = seq++;
                if (deadline >= last.t) {
                    last.t = deadline;
                    last.seq = deadline_seq;
                }
            }
            if (last.t > -kInf) {
                ++unit.pending;
                events.push(last);
            }
        }
        for (int comp = 0; comp < kNumComponents; ++comp) {
            if (comps[comp] <= 0) {
                continue;
            }
            int clock_id;
            switch (comp) {
              case kCompDram:
                clock_id = 0;
                break;
              case kCompL2:
                clock_id = 1;
                break;
              case kCompMemSm:
                clock_id = 2 + 3 * unit.sm + 2;
                break;
              default:  // kCompTensor / kCompCuda.
                clock_id = 2 + 3 * unit.sm + comp;
                break;
            }
            Clock &c = clocks[static_cast<std::size_t>(clock_id)];
            c.advance(now);
            c.thresholds.push(
                {c.value + comps[comp],
                 static_cast<std::int64_t>(unit_id) * kNumComponents +
                     comp});
            ++unit.pending;
            push_clock_prediction(clock_id);
        }
        if (unit.pending == 0) {
            complete_unit(unit_id, now);
        }
    };

    // ---- Seed: kernels with no dependencies become ready after launch.
    for (int k = 0; k < num_kernels; ++k) {
        if (unresolved[static_cast<std::size_t>(k)] == 0) {
            push_ready(k, 0);
        }
    }

    // Retires the clock's smallest threshold.
    const auto fire_top = [&](Clock &c, double now) {
        const int unit_id =
            static_cast<int>(c.thresholds.top().second / kNumComponents);
        c.thresholds.pop();
        if (--units[static_cast<std::size_t>(unit_id)].pending == 0) {
            complete_unit(unit_id, now);
        }
    };

    double now = 0;

    // ---- Quiescent points. With no unit resident and nothing left to
    // issue, no activation, deadline or clock prediction is pending and
    // only kernel-ready events are queued: the device is idle. The
    // segment origin then moves to `now` (a rebase), so what follows is
    // timed in a clean local frame, independent of when it starts.
    std::vector<Event> pending;  // The queued ready events, in pop order.
    const auto rebase = [&] {
        base += now;
        pending.clear();
        while (!events.empty()) {
            pending.push_back(events.top());
            events.pop();
        }
        for (Event &ev : pending) {
            // Re-timed from the releasing finish, exactly as it would
            // have been pushed in the new frame: the kernel released by
            // the last finish lands at kernel_launch_us, like a seed.
            double &origin = ready_origin[static_cast<std::size_t>(ev.id)];
            origin -= now;
            ev.t = origin + device_.kernel_launch_us;
        }
        // Units and clock progress restart at zero: unit ids break
        // threshold ties and the tie tolerances scale with the clock.
        for (Clock &c : clocks) {
            c.value = 0;
            c.last_t = 0;
        }
        units.clear();
        free_units.clear();
        issue_cursor = 0;
        now = 0;
    };

    // ---- Splicing. A rebased segment is a function of its entry (the
    // pending kernels, their origins, their pop order) and of the
    // kernels that become ready in it. A segment whose entry repeats a
    // recorded one at a kernel-index offset `d`, over kernels equal to
    // the recorded ones shifted by `d`, therefore times exactly as the
    // record did, and its stats are copied instead of simulated.
    std::unordered_map<std::uint64_t, std::vector<int>> segments_by_key;
    std::vector<int> mark(static_cast<std::size_t>(num_kernels), -1);
    std::vector<int> left_mark(static_cast<std::size_t>(num_kernels), -1);
    std::vector<int> left(static_cast<std::size_t>(num_kernels), 0);
    int stamp = 0;

    // Whether `seg`, shifted by `d`, is what the pending kernels would
    // run next. On success mark[k] == stamp for every kernel it runs.
    const auto repeats = [&](const Segment &seg, int d) {
        for (std::size_t i = 0; i < pending.size(); ++i) {
            const int k = pending[i].id;
            if (k != seg.entry[i].first + d ||
                ready_origin[static_cast<std::size_t>(k)] !=
                    seg.entry[i].second) {
                return false;
            }
        }
        ++stamp;
        for (const int r : seg.finishes) {
            if (r + d < 0 || r + d >= num_kernels) {
                return false;
            }
            mark[static_cast<std::size_t>(r + d)] = stamp;
        }
        // Each kernel equals its record in launch content, real stream
        // and dep offsets, and every dep outside the segment is done.
        for (const int r : seg.finishes) {
            const int k = r + d;
            const LaunchGraphNode &a = nodes[static_cast<std::size_t>(k)];
            const LaunchGraphNode &b = nodes[static_cast<std::size_t>(r)];
            // Names and buffer annotations never change a timing.
            if (runs[static_cast<std::size_t>(k)].ready ||
                a.stream != b.stream || a.deps.size() != b.deps.size() ||
                a.launch.shape != b.launch.shape ||
                a.launch.tbs != b.launch.tbs) {
                return false;
            }
            for (std::size_t j = 0; j < a.deps.size(); ++j) {
                const int dep = a.deps[j];
                if (dep != b.deps[j] + d ||
                    (mark[static_cast<std::size_t>(dep)] != stamp &&
                     !runs[static_cast<std::size_t>(dep)].done)) {
                    return false;
                }
            }
        }
        // No kernel outside the segment is released early enough to
        // become ready before the segment ends.
        for (const int r : seg.finishes) {
            const double origin = runs[static_cast<std::size_t>(r)].end_t;
            for (const int c : children[static_cast<std::size_t>(r + d)]) {
                const auto ci = static_cast<std::size_t>(c);
                if (mark[ci] == stamp) {
                    continue;
                }
                if (left_mark[ci] != stamp) {
                    left_mark[ci] = stamp;
                    left[ci] = unresolved[ci];
                }
                if (--left[ci] == 0 &&
                    origin + device_.kernel_launch_us <= seg.end) {
                    return false;
                }
            }
        }
        return true;
    };

    // Finds a recorded segment the pending kernels repeat; returns its
    // index and sets `d`, or returns -1.
    const auto find_repeat = [&](std::uint64_t key, int &d) {
        const auto it = segments_by_key.find(key);
        if (it == segments_by_key.end()) {
            return -1;
        }
        for (const int s : it->second) {
            const Segment &seg = segments[static_cast<std::size_t>(s)];
            d = pending.front().id - seg.entry.front().first;
            if (seg.entry.size() == pending.size() && repeats(seg, d)) {
                return s;
            }
        }
        return -1;
    };

    // Runs `seg` shifted by `d` without simulating it: copies its local
    // stats and releases children in its finish order, so their ready
    // events take seqs in the order a simulation would give them.
    const auto splice = [&](const Segment &seg, int d) {
        for (const int r : seg.finishes) {
            const int k = r + d;
            const KernelRun &rec = runs[static_cast<std::size_t>(r)];
            KernelRun &run = runs[static_cast<std::size_t>(k)];
            run.ready = true;
            run.done = true;
            run.ready_t = rec.ready_t;
            run.start_t = rec.start_t;
            run.end_t = rec.end_t;
            run.unit_busy = rec.unit_busy;
            kernel_base[static_cast<std::size_t>(k)] = base;
            ++kernels_done;
            for (const int c : children[static_cast<std::size_t>(k)]) {
                if (--unresolved[static_cast<std::size_t>(c)] == 0 &&
                    mark[static_cast<std::size_t>(c)] != stamp) {
                    push_ready(c, rec.end_t);
                }
            }
        }
        now = seg.end;
        ++counters.segment_hits;
        counters.spliced_kernels += static_cast<std::int64_t>(
            seg.finishes.size());
    };

    // Closes the segment being simulated, then rebases and splices while
    // the pending kernels repeat a record; the first that does not starts
    // a new recorded segment.
    const auto at_quiescent_point = [&] {
        if (recording >= 0) {
            segments[static_cast<std::size_t>(recording)].end = now;
            recording = -1;
        }
        while (!events.empty()) {
            rebase();
            std::vector<std::pair<int, double>> entry;
            entry.reserve(pending.size());
            for (const Event &ev : pending) {
                entry.emplace_back(
                    ev.id, ready_origin[static_cast<std::size_t>(ev.id)]);
            }
            const std::uint64_t key = entry_key(entry);
            int d = 0;
            const int hit = find_repeat(key, d);
            for (const Event &ev : pending) {
                if (hit < 0 || mark[static_cast<std::size_t>(ev.id)] != stamp) {
                    events.push(ev);
                }
            }
            if (hit >= 0) {
                splice(segments[static_cast<std::size_t>(hit)], d);
                continue;
            }
            recording = static_cast<int>(segments.size());
            segments.push_back({std::move(entry), {}, 0});
            segments_by_key[key].push_back(recording);
            ++counters.segments;
            return;
        }
    };

    while (true) {
        if (free_units.size() == units.size() && issuable.empty() &&
            predictions.empty()) {
            at_quiescent_point();
        }
        counters.peak_queue =
            std::max(counters.peak_queue,
                     static_cast<std::int64_t>(events.size() +
                                               predictions.size()));
        // Kind 0 sorts first at equal t, so a prediction due no later
        // than the main heap's top pops before it.
        const bool crossing =
            !predictions.empty() &&
            (events.empty() || predictions.top_t() <= events.top().t);
        if (!crossing && events.empty()) {
            break;
        }
        const double t_due = crossing ? predictions.top_t() : events.top().t;
        MG_CHECK(t_due >= now - 1e-6) << "simulator time went backwards";
        now = std::max(now, t_due);

        if (crossing) {
            ++counters.crossing_events;
            const int clock_id = predictions.top();
            Clock &c = clocks[static_cast<std::size_t>(clock_id)];
            // Both paths end by replacing or erasing this prediction.
            if (c.next_crossing() > t_due + 1e-9 * std::max(1.0, t_due)) {
                push_clock_prediction(clock_id);
                continue;
            }
            c.advance(now);
            // Fire every threshold crossed at this instant.
            const double limit =
                c.value + 1e-9 * std::max(1.0, std::abs(c.value));
            const std::size_t before = c.thresholds.size();
            while (!c.thresholds.empty() &&
                   c.thresholds.top().first <= limit) {
                fire_top(c, now);
            }
            // A crossing less than one ulp of `now` away can never be
            // reached by advancing the clock; re-predicting it would
            // return this instant forever. Fire it now.
            if (c.thresholds.size() == before && !c.thresholds.empty() &&
                c.next_crossing() <= now) {
                fire_top(c, now);
            }
            push_clock_prediction(clock_id);
            continue;
        }

        const Event ev = events.top();
        events.pop();
        switch (ev.kind) {
          case 1: {  // Kernel ready.
            ++counters.ready_events;
            KernelRun &run = runs[static_cast<std::size_t>(ev.id)];
            run.ready = true;
            run.ready_t = now;
            if (run.total_tbs == 0) {
                run.start_t = now;
                finish_kernel(ev.id, now);
            } else {
                issuable.push_back(ev.id);
                fill_all_sms(now);
            }
            break;
          }
          case 2: {  // Unit activation after its prologue.
            ++counters.activation_events;
            activate_unit(ev.id, now);
            break;
          }
          case 3: {  // The unit's last private deadline passed.
            ++counters.deadline_events;
            Unit &unit = units[static_cast<std::size_t>(ev.id)];
            if (--unit.pending == 0) {
                complete_unit(ev.id, now);
            }
            break;
          }
        }
    }

    MG_CHECK(kernels_done == num_kernels)
        << "simulation ended with " << num_kernels - kernels_done
        << " kernels unfinished (dependency deadlock?)";

    // ---- Results.
    SimResult result;
    result.kernels.reserve(static_cast<std::size_t>(num_kernels));
    for (int k = 0; k < num_kernels; ++k) {
        const LaunchGraphNode &node = nodes[static_cast<std::size_t>(k)];
        const KernelRun &run = runs[static_cast<std::size_t>(k)];
        KernelStats stats;
        stats.name = node.launch.name;
        stats.stream = node.stream;
        stats.num_tbs = run.total_tbs;
        stats.occupancy_per_sm = run.occ;
        const double kbase = kernel_base[static_cast<std::size_t>(k)];
        stats.ready_us = kbase + run.ready_t;
        stats.start_us = kbase + run.start_t;
        stats.end_us = kbase + run.end_t;
        stats.work = node.launch.total_work();
        stats.deps = node.deps;  // Sorted and deduplicated at capture.
        stats.avg_concurrency =
            run.end_t > run.start_t
                ? run.unit_busy / (run.end_t - run.start_t)
                : 0;
        result.work += stats.work;
        result.total_us = std::max(result.total_us, stats.end_us);
        result.kernels.push_back(std::move(stats));
    }
    result.engine = counters;
    return result;
}

SimResult
simulate(const DeviceSpec &device, const LaunchGraph &graph)
{
    GpuSim sim(device);
    graph.replay_into(sim);
    return sim.run();
}

}  // namespace multigrain::sim
