#include "exp/sink.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "exp/fingerprint.hh"
#include "exp/json.hh"
#include "exp/profile.hh"

namespace ede {
namespace exp {

namespace {

/**
 * One exact latency record as an inline JSON object.  An empty
 * population reports explicit nulls -- a zero percentile and a
 * missing one are different claims, and shed-heavy overload cells
 * produce genuinely empty populations.
 */
void
emitLatency(std::ostream &os, const traffic::LatencySummary &s)
{
    if (s.count == 0) {
        os << "{\"count\": 0, \"p50\": null, \"p99\": null, "
              "\"p999\": null, \"max\": null, \"mean\": null}";
        return;
    }
    os << "{\"count\": " << s.count << ", \"p50\": " << s.p50
       << ", \"p99\": " << s.p99 << ", \"p999\": " << s.p999
       << ", \"max\": " << s.max << ", \"mean\": "
       << jsonDouble(s.mean()) << "}";
}

void
emitCell(std::ostream &os, const ExperimentCell &c)
{
    const RunResult &r = c.result;
    os << "    {\n";
    os << "      \"label\": \"" << jsonEscape(c.point.label) << "\",\n";
    os << "      \"app\": \"" << pointAppName(c.point) << "\",\n";
    os << "      \"config\": \"" << configName(c.point.config)
       << "\",\n";
    os << "      \"fingerprint\": \"" << fingerprintHex(c.fingerprint)
       << "\",\n";
    os << "      \"from_cache\": " << (c.fromCache ? "true" : "false")
       << ",\n";
    if (c.point.traffic) {
        // Traffic cells carry the offered-load point and the mix
        // knobs instead of a transaction structure.
        const traffic::TrafficPlan &tp = c.point.trafficPlan;
        os << "      \"streams\": " << tp.streams << ",\n";
        os << "      \"txns_per_stream\": " << tp.txnsPerStream
           << ",\n";
        os << "      \"ops_per_txn\": " << tp.opsPerTxn << ",\n";
        os << "      \"arrival\": \""
           << traffic::arrivalKindName(tp.arrival.kind) << "\",\n";
        os << "      \"mean_gap\": " << jsonDouble(tp.arrival.meanGap)
           << ",\n";
        if (tp.arrival.kind == traffic::ArrivalKind::ClosedPool) {
            os << "      \"pool_size\": " << tp.arrival.poolSize
               << ",\n";
            os << "      \"think_time\": "
               << jsonDouble(tp.arrival.thinkTime) << ",\n";
        }
        os << "      \"zipf_theta\": "
           << jsonDouble(tp.mix.zipfTheta) << ",\n";
        os << "      \"read_fraction\": "
           << jsonDouble(tp.mix.readFraction) << ",\n";
        os << "      \"warmup_permille\": " << tp.warmupPermille
           << ",\n";
        os << "      \"admission\": \""
           << traffic::admissionKindName(tp.policy.admission)
           << "\",\n";
        os << "      \"seed\": " << tp.seed << ",\n";
    } else if (c.point.conc) {
        // Concurrent-kernel cells have no transaction structure;
        // the workload knobs are per-core ops and the interleaving
        // seed.
        os << "      \"ops_per_core\": " << c.point.concOpsPerCore
           << ",\n";
        os << "      \"seed\": " << c.point.concSeed << ",\n";
    } else {
        os << "      \"txns\": " << c.point.spec.txns << ",\n";
        os << "      \"ops_per_txn\": " << c.point.spec.opsPerTxn
           << ",\n";
        os << "      \"seed\": " << c.point.spec.seed << ",\n";
    }
    os << "      \"op_cycles\": " << c.opCycles << ",\n";
    os << "      \"cycles\": " << r.cycles << ",\n";
    os << "      \"core_count\": " << r.coreCount << ",\n";
    os << "      \"retired\": " << r.core.retired << ",\n";
    os << "      \"ipc\": " << jsonDouble(r.core.ipc()) << ",\n";
    os << "      \"cores\": [";
    for (std::size_t i = 0; i < r.perCore.size(); ++i) {
        const CoreRunStats &pc = r.perCore[i];
        os << (i ? ", " : "") << "{\"core\": " << pc.core
           << ", \"cycles\": " << pc.stats.cycles << ", \"retired\": "
           << pc.stats.retired << ", \"ipc\": "
           << jsonDouble(pc.stats.ipc()) << ", \"l1d_misses\": "
           << pc.l1d.misses << ", \"snoop_invalidations\": "
           << pc.l1d.snoopInvalidations << "}";
    }
    os << "],\n";
    os << "      \"coherence\": {\"snoops\": " << r.coherence.snoops
       << ", \"invalidations\": " << r.coherence.invalidations
       << ", \"downgrades\": " << r.coherence.downgrades
       << ", \"dirty_handoffs\": " << r.coherence.dirtyHandoffs
       << "},\n";
    os << "      \"issue_hist\": [";
    for (std::size_t i = 0; i < r.core.issueHist.size(); ++i) {
        os << (i ? ", " : "") << r.core.issueHist.count(i);
    }
    os << "],\n";
    os << "      \"nvm_occupancy_mean\": "
       << jsonDouble(r.nvmOccupancy.mean()) << ",\n";
    os << "      \"nvm\": {\"writes_accepted\": "
       << r.nvm.writesAccepted << ", \"writes_coalesced\": "
       << r.nvm.writesCoalesced << ", \"media_writes\": "
       << r.nvm.mediaWrites << ", \"buffer_full_rejects\": "
       << r.nvm.bufferFullRejects << ", \"reads\": " << r.nvm.reads
       << "},\n";
    os << "      \"write_buffer\": {\"inserted\": " << r.wb.inserted
       << ", \"src_id_gated\": " << r.wb.srcIdGated
       << ", \"dmb_gated\": " << r.wb.dmbGated << "},\n";
    os << "      \"edk\": {\"stall_checks\": " << r.core.edkStallChecks
       << ", \"external_stalls\": " << r.core.edkExternalStalls
       << ", \"stuck_detected\": " << r.core.edkStuckDetected
       << ", \"fences_synthesized\": " << r.core.edkFencesSynthesized
       << "},\n";
    os << "      \"caches\": {\"l1d_misses\": " << r.l1d.misses
       << ", \"l2_misses\": " << r.l2.misses << ", \"l3_misses\": "
       << r.l3.misses << "},\n";
    os << "      \"dram\": {\"reads\": " << r.dram.reads
       << ", \"writes\": " << r.dram.writes << "},\n";
    if (r.traffic.enabled) {
        // Exact open-loop and closed-loop (service) tail latencies,
        // aggregate and per stream.  Integer cycles throughout: the
        // values are bit-identical across --jobs counts and tickers.
        os << "      \"traffic\": {\n";
        os << "        \"open\": ";
        emitLatency(os, r.traffic.open);
        os << ",\n        \"service\": ";
        emitLatency(os, r.traffic.service);
        // Headline steady-state numbers exclude the warmup fraction;
        // the windows array is the per-window time series.
        os << ",\n        \"open_warmup\": ";
        emitLatency(os, r.traffic.openWarmup);
        os << ",\n        \"open_steady\": ";
        emitLatency(os, r.traffic.openSteady);
        os << ",\n        \"service_warmup\": ";
        emitLatency(os, r.traffic.serviceWarmup);
        os << ",\n        \"service_steady\": ";
        emitLatency(os, r.traffic.serviceSteady);
        os << ",\n        \"windows\": [";
        for (std::size_t i = 0; i < r.traffic.windows.size(); ++i) {
            const traffic::WindowLatency &w = r.traffic.windows[i];
            os << (i ? ", " : "") << "{\"window\": " << w.window
               << ", \"warmup\": " << (w.warmup ? "true" : "false")
               << ", \"open\": ";
            emitLatency(os, w.open);
            os << ", \"service\": ";
            emitLatency(os, w.service);
            os << "}";
        }
        os << "],\n        \"streams\": [";
        for (std::size_t i = 0; i < r.traffic.streams.size(); ++i) {
            const traffic::StreamLatency &sl = r.traffic.streams[i];
            os << (i ? ", " : "") << "{\"stream\": " << sl.stream
               << ", \"core\": " << sl.core << ", \"shed\": "
               << sl.shed << ", \"retries\": " << sl.retries
               << ", \"failures\": " << sl.failures << ", \"open\": ";
            emitLatency(os, sl.open);
            os << ", \"service\": ";
            emitLatency(os, sl.service);
            os << "}";
        }
        os << "]";
        if (r.traffic.overload.enabled) {
            const traffic::OverloadResult &ov = r.traffic.overload;
            os << ",\n        \"overload\": {\n";
            os << "          \"effective_depth\": "
               << ov.effectiveDepth << ",\n";
            os << "          \"offered\": " << ov.offered << ",\n";
            os << "          \"completed\": " << ov.completed
               << ",\n";
            os << "          \"goodput\": " << ov.goodput << ",\n";
            os << "          \"timeouts\": " << ov.timeouts << ",\n";
            os << "          \"failures\": " << ov.failures << ",\n";
            os << "          \"steady_offered\": " << ov.steadyOffered
               << ",\n";
            os << "          \"steady_goodput\": " << ov.steadyGoodput
               << ",\n";
            os << "          \"steady_horizon\": " << ov.steadyHorizon
               << ",\n";
            os << "          \"shed\": {\"queue\": " << ov.shedQueue
               << ", \"deadline\": " << ov.shedDeadline
               << ", \"token\": " << ov.shedToken
               << ", \"degrade\": " << ov.shedDegrade << "},\n";
            os << "          \"retries\": " << ov.retries << ",\n";
            os << "          \"retry_exhausted\": "
               << ov.retryExhausted << ",\n";
            os << "          \"degrade\": {\"up\": " << ov.degradeUp
               << ", \"down\": " << ov.degradeDown
               << ", \"max_level\": " << ov.maxDegradeLevel
               << "},\n";
            os << "          \"open\": ";
            emitLatency(os, ov.open);
            os << ",\n          \"goodput_open\": ";
            emitLatency(os, ov.goodputOpen);
            os << "\n        }";
        }
        os << "\n      },\n";
    }
    // Host-side measurement of the simulation itself; all-zero for
    // cache-restored cells (host wall time is never cached).
    os << "      \"host_perf\": " << profileToJson(c.profile, "      ")
       << "\n";
    os << "    }";
}

} // namespace

std::string
resultsToJson(const std::string &benchName,
              const ExperimentResults &results)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"bench\": \"" << jsonEscape(benchName) << "\",\n";
    os << "  \"schema\": " << kResultSchemaVersion << ",\n";
    os << "  \"cache\": {\"hits\": " << results.cacheHits()
       << ", \"replayed\": " << results.journalReplays()
       << ", \"simulated\": " << results.simulated() << "},\n";
    os << "  \"cells\": [\n";
    // Quarantined cells carry no measurements; they are reported in
    // the "failures" array instead so downstream consumers never
    // mistake an empty RunResult for data.
    std::vector<const ExperimentCell *> ok_cells;
    for (const ExperimentCell &c : results.cells()) {
        if (!c.failed)
            ok_cells.push_back(&c);
    }
    for (std::size_t i = 0; i < ok_cells.size(); ++i) {
        emitCell(os, *ok_cells[i]);
        os << (i + 1 < ok_cells.size() ? ",\n" : "\n");
    }
    os << "  ],\n";
    os << "  \"failures\": [\n";
    const auto &failures = results.failures();
    for (std::size_t i = 0; i < failures.size(); ++i) {
        const ExperimentCell &c = *failures[i];
        const JobFailure &f = c.failure;
        os << "    {\n";
        os << "      \"label\": \"" << jsonEscape(c.point.label)
           << "\",\n";
        os << "      \"app\": \"" << pointAppName(c.point)
           << "\",\n";
        os << "      \"config\": \"" << configName(c.point.config)
           << "\",\n";
        os << "      \"fingerprint\": \""
           << fingerprintHex(c.fingerprint) << "\",\n";
        os << "      \"outcome\": \"" << jobOutcomeName(f.outcome)
           << "\",\n";
        os << "      \"signal\": " << f.signal << ",\n";
        os << "      \"exit_code\": " << f.exitCode << ",\n";
        os << "      \"attempts\": " << f.attempts << ",\n";
        os << "      \"message\": \"" << jsonEscape(f.message)
           << "\",\n";
        os << "      \"stderr_tail\": \"" << jsonEscape(f.stderrTail)
           << "\"\n";
        os << "    }" << (i + 1 < failures.size() ? ",\n" : "\n");
    }
    os << "  ]\n";
    os << "}\n";
    return os.str();
}

void
writeArtifactFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        ede_fatal("cannot write JSON artifact '", path, "'");
    out << text;
    out.close();
    if (!out)
        ede_fatal("short write on JSON artifact '", path, "'");
}

void
writeJsonArtifact(const std::string &path, const std::string &benchName,
                  const ExperimentResults &results)
{
    writeArtifactFile(path, resultsToJson(benchName, results));
    std::printf("[exp] wrote %s (%zu cells)\n", path.c_str(),
                results.size());
}

} // namespace exp
} // namespace ede
