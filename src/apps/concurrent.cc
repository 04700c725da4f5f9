#include "apps/concurrent.hh"

#include <algorithm>
#include <array>
#include <deque>
#include <set>

#include "common/logging.hh"
#include "common/random.hh"
#include "pipeline/sim_error.hh"
#include "sim/session.hh"
#include "trace/builder.hh"

namespace ede {
namespace {

/** Node @p n of core @p core's arena (64 B nodes, line-aligned). */
Addr
arenaNode(unsigned core, int n)
{
    return kConcArenaBase + core * kConcArenaStride +
           64ull * static_cast<unsigned>(n);
}

/**
 * Paced-mode alignment loads chain through this register (outside
 * the TempRegPool range), fresh NVM lines deep inside the core's own
 * arena so every round costs the same long run of media reads on
 * every core.
 */
constexpr RegIndex kPaceReg = 26;

/**
 * Chained pace reads per core per round.  The quantum must dominate
 * the cumulative machine-cost imbalance between cores: every core
 * pays the same quantum of reads per round and the acting core
 * additionally pays its structural op's retire-visible cost (drain
 * barriers, accept round trips), so after R rounds a core's clock
 * lags the round grid by the sum of its own op costs -- which grows
 * with opsPerCore, hence the quantum does too.  The bound is
 * heuristic; ConcurrentHarness::simulateChecked() verifies the
 * achieved serialization exactly and fails loudly (PacingDrift) if
 * the margin was ever insufficient.
 */
int
paceDepth(const ConcParams &p)
{
    return 16 + 2 * p.opsPerCore;
}

/** Pace-read lines per core: [0x80000, 0x100000) of the 1 MiB arena. */
constexpr std::uint64_t kPaceSlots = 0x80000 / 64;

/** The @p slot'th pace-read line of core @p core's arena. */
Addr
paceRead(unsigned core, int slot)
{
    ede_assert(slot >= 0 && static_cast<std::uint64_t>(slot) < kPaceSlots,
               "pace-read slots exhausted");
    return kConcArenaBase + core * kConcArenaStride + 0x80000 +
           64ull * static_cast<unsigned>(slot);
}

/** 64 B cache line of @p a. */
Addr
cacheLine(Addr a)
{
    return a & ~static_cast<Addr>(63);
}

/** Per-core generation state. */
struct CoreGen
{
    explicit CoreGen(Trace &t) : b(t) {}

    TraceBuilder b;
    TempRegPool temps;
    int nodesUsed = 0;  ///< Arena bump cursor.
};

/**
 * The persist->publish ordering token (see file comment of
 * concurrent.hh): emitted between a DC CVAP and the store that
 * publishes the persisted data.  EDE configs carry the dependence on
 * the key operands instead; U omits ordering entirely.
 */
void
emitOrderingToken(TraceBuilder &b, Config cfg)
{
    switch (cfg) {
      case Config::B:
        b.dsbSy();
        break;
      case Config::SU:
        b.dmbSt();
        break;
      case Config::IQ:
      case Config::WB:
      case Config::U:
        break;
    }
}

/** The drain barrier (grace period / lock release / durable read). */
void
emitDrain(TraceBuilder &b, Config cfg, Edk key, bool all_keys)
{
    switch (cfg) {
      case Config::B:
        b.dsbSy();
        break;
      case Config::SU:
        b.dmbSt();
        break;
      case Config::IQ:
      case Config::WB:
        if (all_keys)
            b.waitAllKeys();
        else
            b.waitKey(key);
        break;
      case Config::U:
        break;
    }
}

/**
 * Make persists another core issued durable before a dependent local
 * publish.  Under EDE this is WAIT_KEY on the owner's key: the
 * counters span the coherence point (core/cross_core.hh), so the
 * waiter drains the remote core's in-flight keyed persists with no
 * fence -- the paper's mechanism, and the edge the
 * seedMissingCrossCoreWaitBug gate deletes.  The fence
 * configurations have no cross-core wait: the dependent core
 * re-CVAPs the remote lines locally (the shared-L2 dirty handoff
 * supplies the coherent data, and the NVM buffer chains same-line
 * accepts behind the remote persist) and fences.  SU fences with
 * DMB ST, which does not order DC CVAP -- the paper's SU hole,
 * faithfully unsafe across cores too.  U emits nothing.
 */
void
emitRemoteDrain(CoreGen &g, Config cfg, Edk ownerKey,
                const std::vector<Addr> &lines)
{
    switch (cfg) {
      case Config::B:
      case Config::SU: {
        const RegIndex r = g.temps.get();
        for (Addr a : lines)
            g.b.cvap(r, cacheLine(a));
        if (cfg == Config::B)
            g.b.dsbSy();
        else
            g.b.dmbSt();
        break;
      }
      case Config::IQ:
      case Config::WB:
        g.b.waitKey(ownerKey);
        break;
      case Config::U:
        break;
    }
}

/**
 * Warm a core's arena line and close its setup phase.  The warming
 * store goes to offset +32 of the first node: kernels use only +0
 * and +8, so it never clobbers a value an op wrote there first (rcu's
 * first list node is arenaNode(0, 0)).
 */
void
emitPreamble(CoreGen &g, unsigned core, const ConcParams &p)
{
    const RegIndex r = g.temps.get();
    g.b.str(r, g.temps.get(), arenaNode(core, 0) + 32, 0);
    g.b.movImm(kPaceReg, 0);
    g.b.dsbSy();
    // Paced mode: every core burns one pace quantum before round 0,
    // keeping the cores' round clocks in phase from the start.  Core
    // 0's setup phase (sentinel / initial list construction) runs
    // before its burn, so setup retires a quantum before anyone's
    // round-0 op can touch what it built, at the cost of a small
    // one-time lag on core 0's clock that the round margin absorbs.
    if (p.paced) {
        for (int j = 0; j < paceDepth(p); ++j)
            g.b.ldr(kPaceReg, kPaceReg, paceRead(core, j));
    }
}

/**
 * The seeded global interleaving: which core performs its next
 * structural operation at each step.
 *
 * Free mode draws the next core uniformly -- the historical
 * fig_scaling behaviour, fine for timing curves where the host model
 * resolves every value up front and machine-time drift between cores
 * is harmless.
 *
 * Paced mode (the crash-consistency checkers) must keep the machine
 * aligned with the model's serialization: a consumer op that exposes
 * a producer core's data genuinely has to run *after* that producer
 * on the machine, or the WAIT it performs retires against an empty
 * counter and the intended ordering never exists.  Paced scheduling
 * runs exactly one structural op per round and balances rounds in
 * blocks (every block of `cores` rounds runs each core once, in
 * seeded order), and emitPaceLoads below charges every core one full
 * NVM media read per round, so per-core progress tracks the round
 * index and a consumer always trails its producer by at least one
 * round's latency.
 */
std::vector<unsigned>
opSchedule(const ConcParams &p, Rng &rng)
{
    std::vector<unsigned> order;
    order.reserve(static_cast<std::size_t>(p.cores) *
                  static_cast<std::size_t>(p.opsPerCore));
    if (p.paced) {
        std::vector<unsigned> block(p.cores);
        for (unsigned c = 0; c < p.cores; ++c)
            block[c] = c;
        for (int r = 0; r < p.opsPerCore; ++r) {
            for (unsigned i = p.cores; i > 1; --i) {
                std::swap(block[i - 1],
                          block[static_cast<std::size_t>(
                              rng.below(i))]);
            }
            order.insert(order.end(), block.begin(), block.end());
        }
    } else {
        std::vector<int> remaining(p.cores, p.opsPerCore);
        std::uint64_t total =
            static_cast<std::uint64_t>(p.cores) *
            static_cast<std::uint64_t>(p.opsPerCore);
        while (total > 0) {
            const auto c =
                static_cast<unsigned>(rng.below(p.cores));
            if (remaining[c] == 0)
                continue;
            --remaining[c];
            --total;
            order.push_back(c);
        }
    }
    return order;
}

/**
 * The paced-mode round boundary: kConcPaceDepth chained
 * (base-dependent) loads of fresh NVM lines on *every* core.  The
 * dependence chain through kPaceReg keeps each core's retirement
 * stream gated behind the full quantum, and the quantum is identical
 * on every core, so per-round advance is equal up to the acting
 * core's structural-op cost (see kConcPaceDepth for why that margin
 * suffices).  Loads add no persist events and no ordering edges --
 * pacing never distorts the lattice under test.
 */
void
emitPaceLoads(std::vector<CoreGen> &gens, const ConcParams &p,
              int round)
{
    if (!p.paced)
        return;
    const int depth = paceDepth(p);
    for (unsigned i = 0; i < p.cores; ++i) {
        for (int j = 0; j < depth; ++j) {
            gens[i].b.ldr(kPaceReg, kPaceReg,
                          paceRead(i, (round + 1) * depth + j));
        }
    }
}

// ---------------------------------------------------------------
// MS-queue: enqueue persists the node, then publishes it through
// the tail link; dequeue drains the exposed node's owner, swings
// the head and persists the swing.
// ---------------------------------------------------------------

struct QueueModel
{
    std::deque<Addr> nodes;  ///< Linked nodes, head first.
    Addr tail = kNoAddr;     ///< Node the tail pointer names.
};

void
emitEnqueue(CoreGen &g, Config cfg, unsigned core, QueueModel &q,
            ConcModel &model, std::uint64_t val)
{
    const bool ede = configUsesEde(cfg);
    const Edk k = concCoreKey(core);
    const Addr node = arenaNode(core, g.nodesUsed++);

    const RegIndex r_node = g.temps.get();
    const RegIndex r_val = g.temps.get();
    g.b.movImm(r_val, static_cast<std::int64_t>(val));
    g.b.str(r_val, r_node, node, val);          // node->val
    g.b.str(r_val, r_node, node + 8, 0, 8);     // node->next = null
    g.b.cvap(r_node, node, ede ? EdkOps{k, 0} : EdkOps{});
    emitOrderingToken(g.b, cfg);

    // Publish: tail->next = node, ordered behind the node persist,
    // then persist the link (the recovery-critical edge).
    const RegIndex r_tail = g.temps.get();
    g.b.str(r_node, r_tail, q.tail + 8, node, 0,
            ede ? EdkOps{0, k} : EdkOps{});
    g.b.cvap(r_tail, q.tail + 8, ede ? EdkOps{k, 0} : EdkOps{});

    // Swing the shared tail pointer, ordered behind the link persist.
    emitOrderingToken(g.b, cfg);
    const RegIndex r_tp = g.temps.get();
    g.b.str(r_node, r_tp, kConcQueueTail, node, 0,
            ede ? EdkOps{0, k} : EdkOps{});

    q.nodes.push_back(node);
    q.tail = node;
    model.queueNodes[node] = val;
}

void
emitDequeue(CoreGen &g, Config cfg, unsigned core, QueueModel &q)
{
    const bool ede = configUsesEde(cfg);
    const Edk k = concCoreKey(core);

    const RegIndex r_head = g.temps.get();
    const RegIndex r_node = g.temps.get();
    g.b.ldr(r_node, r_head, kConcQueueHead);
    if (q.nodes.empty()) {
        // Empty check fails: observe the (null) head and leave.
        g.b.branchCond("msq.empty", r_node, r_node, true);
        return;
    }
    const Addr front = q.nodes.front();
    q.nodes.pop_front();
    const Addr next = q.nodes.empty() ? 0 : q.nodes.front();
    if (q.nodes.empty())
        q.tail = kNoAddr;

    const RegIndex r_next = g.temps.get();
    g.b.ldr(r_next, r_node, front + 8);         // head->next
    g.b.branchCond("msq.deq", r_node, r_next, false);
    const RegIndex r_val = g.temps.get();
    g.b.ldr(r_val, r_node, front);              // consume the value
    // The node the new head exposes was persisted by its enqueuer --
    // possibly on another core.  Its content must be durable before
    // the swing is, or recovery walks into an unwritten node.
    if (next != 0) {
        emitRemoteDrain(g, cfg, concCoreKey(concNodeOwner(next)),
                        {next});
    }
    // Swing head and persist the swing (dequeue durability).
    g.b.str(r_next, r_head, kConcQueueHead, next);
    g.b.cvap(r_head, kConcQueueHead, ede ? EdkOps{k, 0} : EdkOps{});

    if (q.tail == kNoAddr)
        q.tail = front; // Model keeps the last node as sentinel.
}

ConcWorkload
buildMsQueue(const ConcParams &p)
{
    ConcWorkload wl;
    wl.model.app = ConcApp::MsQueue;
    wl.model.cores = p.cores;
    wl.traces.resize(p.cores);
    std::vector<CoreGen> gens;
    gens.reserve(p.cores);
    for (Trace &t : wl.traces)
        gens.emplace_back(t);

    // Core 0 installs the sentinel and the head/tail cells.
    QueueModel q;
    {
        CoreGen &g = gens[0];
        const Addr sent = arenaNode(0, g.nodesUsed++);
        const RegIndex r = g.temps.get();
        const RegIndex r_s = g.temps.get();
        g.b.str(r, r_s, sent + 8, 0, 8);        // sentinel->next
        g.b.str(r, r_s, kConcQueueHead, 0);     // empty queue
        g.b.str(r, r_s, kConcQueueTail, sent);
        g.b.cvap(r_s, sent);
        g.b.cvap(r_s, kConcQueueHead);
        q.tail = sent;
    }
    if (p.paced)
        wl.opSpans.push_back({0, 0, wl.traces[0].size()});
    for (unsigned i = 0; i < p.cores; ++i)
        emitPreamble(gens[i], i, p);

    Rng rng(p.seed);
    const std::vector<unsigned> order = opSchedule(p, rng);
    std::uint64_t val = 1;
    int round = 0;
    for (const unsigned c : order) {
        const std::size_t first = wl.traces[c].size();
        if (q.nodes.empty() || rng.below(2) == 0)
            emitEnqueue(gens[c], p.cfg, c, q, wl.model, val++);
        else
            emitDequeue(gens[c], p.cfg, c, q);
        if (p.paced)
            wl.opSpans.push_back({c, first, wl.traces[c].size()});
        emitPaceLoads(gens, p, round++);
    }
    return wl;
}

// ---------------------------------------------------------------
// Reader-writer lock over a persistent record: writers drain the
// previous writer (the durable face of acquiring the lock), persist
// the record lines, publish a version stamp behind them, and
// release; readers may issue a durable read, draining the last
// writer's in-flight persists across the coherence point.
// ---------------------------------------------------------------

/** Every durable cell the rwlock writers own. */
std::vector<Addr>
rwAllLines()
{
    std::vector<Addr> lines;
    for (int l = 0; l < kConcRwLines; ++l)
        lines.push_back(kConcRwData + 64ull * l);
    lines.push_back(kConcRwStamp);
    return lines;
}

ConcWorkload
buildRwLock(const ConcParams &p)
{
    ConcWorkload wl;
    wl.model.app = ConcApp::RwLock;
    wl.model.cores = p.cores;
    wl.traces.resize(p.cores);
    std::vector<CoreGen> gens;
    gens.reserve(p.cores);
    for (Trace &t : wl.traces)
        gens.emplace_back(t);
    for (unsigned i = 0; i < p.cores; ++i)
        emitPreamble(gens[i], i, p);

    Rng rng(p.seed);
    const std::vector<unsigned> order = opSchedule(p, rng);
    std::uint64_t version = 1;
    unsigned last_writer = 0;
    bool have_writer = false;
    int round = 0;
    for (const unsigned c : order) {
        CoreGen &g = gens[c];
        const std::size_t op_first = wl.traces[c].size();
        const bool ede = configUsesEde(p.cfg);
        const Edk k = concCoreKey(c);
        const RegIndex r_lock = g.temps.get();
        const RegIndex r_obs = g.temps.get();
        g.b.ldr(r_obs, r_lock, kConcLockWord);
        if (rng.below(4) == 0) {
            // Writer: acquire (draining the previous writer's
            // record and stamp persists -- writers hand the durable
            // record over, they never race on it), update + persist
            // the record, publish the stamp, release.
            g.b.branchCond("rw.acq", r_obs, r_obs, false);
            if (have_writer) {
                emitRemoteDrain(g, p.cfg, concCoreKey(last_writer),
                                rwAllLines());
            }
            const RegIndex r_w = g.temps.get();
            g.b.str(r_w, r_lock, kConcLockWord, 1 + c);
            for (int l = 0; l < kConcRwLines; ++l) {
                const Addr line = kConcRwData + 64ull * l;
                const RegIndex r_d = g.temps.get();
                g.b.movImm(r_d,
                           static_cast<std::int64_t>(version));
                g.b.str(r_d, r_lock, line, version);
                g.b.cvap(r_lock, line,
                         ede ? EdkOps{k, 0} : EdkOps{});
            }
            // The record must be durable before the stamp claims it
            // is: a durable stamp v asserts every record line holds
            // version >= v.
            emitDrain(g.b, p.cfg, k, /*all_keys=*/false);
            const RegIndex r_st = g.temps.get();
            g.b.movImm(r_st, static_cast<std::int64_t>(version));
            g.b.str(r_st, r_lock, kConcRwStamp, version);
            g.b.cvap(r_lock, kConcRwStamp,
                     ede ? EdkOps{k, 0} : EdkOps{});
            g.b.str(r_w, r_lock, kConcLockWord, 0);
            g.b.cvap(r_lock, kConcLockWord);
            last_writer = c;
            have_writer = true;
            wl.model.maxVersion = version;
            ++version;
        } else {
            // Reader: observe the lock, read the record.
            g.b.branchCond("rw.read", r_obs, r_obs, false);
            RegIndex r_prev = r_obs;
            for (int l = 0; l < kConcRwLines; ++l) {
                const RegIndex r_d = g.temps.get();
                g.b.ldr(r_d, r_prev, kConcRwData + 64ull * l);
                r_prev = r_d;
            }
            // Durable read (1 in 4): drain the last writer's
            // persists.  Under EDE the waited key belongs to a
            // *different* core -- the counters span the coherence
            // point.
            if (rng.below(4) == 0 && have_writer) {
                std::vector<Addr> lines;
                for (int l = 0; l < kConcRwLines; ++l)
                    lines.push_back(kConcRwData + 64ull * l);
                emitRemoteDrain(g, p.cfg, concCoreKey(last_writer),
                                lines);
                // The receipt makes the durable read observable: it
                // persists the version this reader witnessed,
                // *behind* the drain, so a crash image holding the
                // receipt must also hold the record it vouches for.
                // Dropping the cross-core WAIT above is exactly the
                // bug the seeded-WAIT gate plants: the receipt then
                // floats free of the writer's persists.
                const std::uint64_t vread = version - 1;
                const Addr rcpt = concRwReceipt(c);
                const RegIndex r_v = g.temps.get();
                g.b.movImm(r_v, static_cast<std::int64_t>(vread));
                g.b.str(r_v, r_lock, rcpt, vread);
                g.b.cvap(r_lock, rcpt,
                         ede ? EdkOps{k, 0} : EdkOps{});
            }
        }
        if (p.paced)
            wl.opSpans.push_back({c, op_first, wl.traces[c].size()});
        emitPaceLoads(gens, p, round++);
    }
    return wl;
}

// ---------------------------------------------------------------
// RCU list: readers traverse; updaters drain the previous updater
// (the durable face of the update lock every real RCU serializes
// writers with), persist a replacement node, publish it, then wait
// out a grace period before poisoning the old node.  Under EDE the
// grace period is WAIT_ALL_KEYS, which with cross-core counters
// drains every core's in-flight keyed persists.
// ---------------------------------------------------------------

ConcWorkload
buildRcuList(const ConcParams &p)
{
    ConcWorkload wl;
    wl.model.app = ConcApp::RcuList;
    wl.model.cores = p.cores;
    wl.traces.resize(p.cores);
    std::vector<CoreGen> gens;
    gens.reserve(p.cores);
    for (Trace &t : wl.traces)
        gens.emplace_back(t);

    // Core 0 builds the initial list; the nodes must be durable
    // before the head publish can be (recovery enters through the
    // head).
    std::vector<Addr> list;
    {
        CoreGen &g = gens[0];
        const RegIndex r_n = g.temps.get();
        const RegIndex r_v = g.temps.get();
        for (int n = 0; n < kConcRcuInitLen; ++n)
            list.push_back(arenaNode(0, g.nodesUsed++));
        for (int n = 0; n < kConcRcuInitLen; ++n) {
            const Addr next =
                n + 1 < kConcRcuInitLen ? list[n + 1] : 0;
            const std::uint64_t v = 100 + n;
            g.b.str(r_v, r_n, list[n], v);
            g.b.str(r_v, r_n, list[n] + 8, next, 8);
            g.b.cvap(r_n, list[n]);
            wl.model.listNodes[list[n]] = v;
        }
        g.b.dsbSy();
        g.b.str(r_v, r_n, kConcListHead, list[0]);
        g.b.cvap(r_n, kConcListHead);
    }
    if (p.paced)
        wl.opSpans.push_back({0, 0, wl.traces[0].size()});
    for (unsigned i = 0; i < p.cores; ++i)
        emitPreamble(gens[i], i, p);

    Rng rng(p.seed);
    const std::vector<unsigned> order = opSchedule(p, rng);
    std::uint64_t version = 1000;
    bool have_updater = false;
    unsigned last_updater = 0;
    std::vector<Addr> last_update_lines;
    int round = 0;
    for (const unsigned c : order) {
        CoreGen &g = gens[c];
        const std::size_t op_first = wl.traces[c].size();
        const bool ede = configUsesEde(p.cfg);
        const Edk k = concCoreKey(c);
        if (rng.below(4) == 0) {
            // Updater: replace list[idx] with a fresh node.
            if (have_updater) {
                emitRemoteDrain(g, p.cfg, concCoreKey(last_updater),
                                last_update_lines);
            }
            const auto idx = static_cast<std::size_t>(
                rng.below(list.size()));
            const Addr old = list[idx];
            const Addr next_val = idx + 1 < list.size()
                                      ? list[idx + 1]
                                      : 0;
            const Addr pred =
                idx == 0 ? kConcListHead : list[idx - 1] + 8;
            const Addr node = arenaNode(c, g.nodesUsed++);
            const RegIndex r_n = g.temps.get();
            const RegIndex r_v = g.temps.get();
            g.b.movImm(r_v, static_cast<std::int64_t>(version));
            g.b.str(r_v, r_n, node, version);
            g.b.str(r_v, r_n, node + 8, next_val, 8);
            g.b.cvap(r_n, node, ede ? EdkOps{k, 0} : EdkOps{});
            emitOrderingToken(g.b, p.cfg);
            const RegIndex r_p = g.temps.get();
            g.b.str(r_n, r_p, pred, node, 0,
                    ede ? EdkOps{0, k} : EdkOps{});
            g.b.cvap(r_p, pred, ede ? EdkOps{k, 0} : EdkOps{});
            // Grace period: every core's keyed persists must drain
            // before the old node can be poisoned.
            emitDrain(g.b, p.cfg, k, /*all_keys=*/true);
            const RegIndex r_x = g.temps.get();
            g.b.str(r_x, r_n, old, 0xdead);
            wl.model.listNodes[node] = version;
            list[idx] = node;
            have_updater = true;
            last_updater = c;
            last_update_lines = {cacheLine(node), cacheLine(pred),
                                 cacheLine(old)};
            ++version;
        } else {
            // Reader: pointer-chase the first nodes of the list.
            const RegIndex r_h = g.temps.get();
            RegIndex r_prev = g.temps.get();
            g.b.ldr(r_prev, r_h, kConcListHead);
            const std::size_t hops =
                std::min<std::size_t>(8, list.size());
            for (std::size_t h = 0; h < hops; ++h) {
                const RegIndex r_n = g.temps.get();
                // Dependent load: base is the previous hop's dest.
                g.b.ldr(r_n, r_prev,
                        list[h] + (h + 1 < hops ? 8 : 0));
                r_prev = r_n;
            }
        }
        if (p.paced)
            wl.opSpans.push_back({c, op_first, wl.traces[c].size()});
        emitPaceLoads(gens, p, round++);
    }
    return wl;
}

// ---------------------------------------------------------------
// Recovery oracles (see the invariant list in concurrent.hh).
// ---------------------------------------------------------------

const char *
checkMsQueue(const ConcModel &m, const MemoryImage &img)
{
    Addr p = img.read<std::uint64_t>(kConcQueueHead);
    std::set<Addr> visited;
    while (p != 0) {
        if (!visited.insert(p).second)
            return "msqueue-doubly-linked";
        const auto it = m.queueNodes.find(p);
        if (it == m.queueNodes.end() ||
            img.read<std::uint64_t>(p) != it->second)
            return "msqueue-node-lost";
        p = img.read<std::uint64_t>(p + 8);
    }
    return nullptr;
}

const char *
checkRwLock(const ConcModel &m, const MemoryImage &img)
{
    const auto stamp = img.read<std::uint64_t>(kConcRwStamp);
    if (stamp != 0) {  // Else no writer's stamp became durable.
        if (stamp > m.maxVersion)
            return "rwlock-torn-write";
        for (int l = 0; l < kConcRwLines; ++l) {
            const auto v =
                img.read<std::uint64_t>(kConcRwData + 64ull * l);
            if (v < stamp || v > m.maxVersion)
                return "rwlock-torn-write";
        }
    }
    // Durable read receipts: a reader that persisted a receipt at
    // version v vouched that it drained the version-v writer first,
    // so v's record lines must be at least as durable as the receipt.
    for (unsigned c = 0; c < m.cores; ++c) {
        const auto v = img.read<std::uint64_t>(concRwReceipt(c));
        if (v == 0)
            continue;  // No durable read on this core.
        if (v > m.maxVersion)
            return "rwlock-torn-write";
        for (int l = 0; l < kConcRwLines; ++l) {
            if (img.read<std::uint64_t>(kConcRwData + 64ull * l) < v)
                return "rwlock-torn-write";
        }
    }
    return nullptr;
}

const char *
checkRcu(const ConcModel &m, const MemoryImage &img)
{
    Addr p = img.read<std::uint64_t>(kConcListHead);
    std::set<Addr> visited;
    while (p != 0) {
        if (!visited.insert(p).second)
            return "rcu-dangling-node";
        const auto v = img.read<std::uint64_t>(p);
        if (v == 0xdead)
            return "rcu-reclaimed-reachable";
        const auto it = m.listNodes.find(p);
        if (it == m.listNodes.end() || it->second != v)
            return "rcu-dangling-node";
        p = img.read<std::uint64_t>(p + 8);
    }
    return nullptr;
}

} // namespace

ConcWorkload
buildConcurrentWorkload(ConcApp app, const ConcParams &p)
{
    ede_assert(p.cores >= 1, "concurrent workloads need >= 1 core");
    ede_assert(p.opsPerCore >= 1,
               "concurrent workloads need >= 1 op per core");
    if (configUsesEde(p.cfg)) {
        // Round-robin key allocation with an explicit collision
        // check: one real key per core, and a core whose round-robin
        // key is exhausted or already taken fails generation instead
        // of silently sharing (a shared key would let a WAIT drain
        // the wrong core's persists).
        std::array<bool, kNumEdks> used{};
        for (unsigned c = 0; c < p.cores; ++c) {
            const Edk k = concCoreKey(c);
            if (!edkIsReal(k) || used[k]) {
                SimError err;
                err.kind = SimErrorKind::CoreCountKeyExhausted;
                throw SimFaultError(err);
            }
            used[k] = true;
        }
    }
    if (p.paced) {
        // Every pace quantum reads fresh lines: the preamble's plus
        // one per round, and a paced run has one round per op.
        const std::uint64_t rounds =
            std::uint64_t{p.cores} *
                static_cast<std::uint64_t>(p.opsPerCore) +
            1;
        const std::uint64_t needed =
            rounds * static_cast<std::uint64_t>(paceDepth(p));
        if (needed > kPaceSlots) {
            SimError err;
            err.kind = SimErrorKind::RunRequestInvalid;
            err.detail = "paced workload needs " +
                         std::to_string(needed) +
                         " pace-read lines per core (cores x "
                         "ops-per-core + 1 rounds of " +
                         std::to_string(paceDepth(p)) +
                         "); the arena holds " +
                         std::to_string(kPaceSlots);
            throw SimFaultError(err);
        }
    }
    switch (app) {
      case ConcApp::MsQueue:
        return buildMsQueue(p);
      case ConcApp::RwLock:
        return buildRwLock(p);
      case ConcApp::RcuList:
        return buildRcuList(p);
    }
    ede_assert(false, "unknown concurrent app");
    return {};
}

std::vector<Trace>
buildConcurrentTraces(ConcApp app, const ConcParams &p)
{
    return buildConcurrentWorkload(app, p).traces;
}

const char *
checkConcInvariants(const ConcModel &model, const MemoryImage &image)
{
    switch (model.app) {
      case ConcApp::MsQueue:
        return checkMsQueue(model, image);
      case ConcApp::RwLock:
        return checkRwLock(model, image);
      case ConcApp::RcuList:
        return checkRcu(model, image);
    }
    ede_assert(false, "unknown concurrent app");
    return nullptr;
}

} // namespace ede
