#include "exp/result_cache.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/logging.hh"
#include "exp/fingerprint.hh"
#include "exp/wire.hh"

namespace ede {
namespace exp {

namespace {

constexpr const char *kMagic = "ede-exp-snapshot";

/**
 * The snapshot layout, for both directions (exp/wire.hh).  A
 * multi-core cell adds the per-core section; a single-core snapshot
 * carries everything in the aggregate sections, and the reader
 * rebuilds its per-core view from them.
 */
template <FieldsOf<ExperimentCell> C, class Io>
void
visitSnapshot(C &cell, Io &io)
{
    auto &r = cell.result;
    io.line(kMagic, kResultSchemaVersion);
    io.line("fingerprint", fingerprintHex(cell.fingerprint));
    io.line("app", pointAppName(cell.point));
    io.line("config", configName(cell.point.config));
    io.line("opCycles", cell.opCycles);
    io.line("cycles", r.cycles);
    io.line("coreCount", r.coreCount);
    io.check(r.coreCount >= 1);
    io.line("coherence", r.coherence);
    io.keyed("core.", r.core);
    io.line("issueHist", r.core.issueHist);
    io.line("wb", r.wb);
    io.line("nvm", r.nvm);
    io.line("nvmOccupancy", r.nvmOccupancy);
    io.line("l1d", r.l1d);
    io.line("l2", r.l2);
    io.line("l3", r.l3);
    io.line("dram", r.dram);
    if (r.coreCount != 1) {
        io.seq("perCore", r.perCore, [&](auto &pc) {
            io.line("pc", pc.core, pc.stats);
            io.line("pcHist", pc.stats.issueHist);
            io.line("pcWb", pc.wb);
            io.line("pcL1d", pc.l1d);
        });
        io.check(r.perCore.size() == r.coreCount);
    }

    // Traffic cells append their exact tail-latency records.  The
    // flag line itself is written for every cell -- the section is
    // part of the v8 layout, not an optional trailer.
    auto &t = r.traffic;
    io.line("traffic", wire::flag(t.enabled));
    if (t.enabled) {
        io.line("tOpen", t.open);
        io.line("tService", t.service);
        io.line("tOpenWarm", t.openWarmup);
        io.line("tOpenSteady", t.openSteady);
        io.line("tServiceWarm", t.serviceWarmup);
        io.line("tServiceSteady", t.serviceSteady);
        io.seq(
            "tWindows", t.windows,
            [&](auto &w) {
                io.line("tw", w.window, wire::flag(w.warmup));
                io.line("twOpen", w.open);
                io.line("twService", w.service);
            },
            traffic::kTrafficMaxWindows);
        io.seq("tStreams", t.streams, [&](auto &s) {
            io.line("ts", s.stream, s.core, s.shed, s.retries,
                    s.failures);
            io.line("tsOpen", s.open);
            io.line("tsService", s.service);
        });
        auto &ov = t.overload;
        io.line("tOverload", wire::flag(ov.enabled));
        if (ov.enabled) {
            io.line("tOv", ov);
            io.line("tOvOpen", ov.open);
            io.line("tOvGoodput", ov.goodputOpen);
        }
    }
    io.line("end");
}

} // namespace

std::string
serializeCell(const ExperimentCell &cell)
{
    WireWriter out;
    visitSnapshot(cell, out);
    return out.text();
}

std::optional<ExperimentCell>
deserializeCell(const std::string &text, const ExperimentPoint &point,
                std::uint64_t fingerprint)
{
    ExperimentCell cell;
    cell.point = point;
    cell.fingerprint = fingerprint;
    cell.fromCache = true;
    cell.result.config = point.config;
    WireReader in(text);
    visitSnapshot(cell, in);
    if (!in.ok())
        return std::nullopt;
    RunResult &r = cell.result;
    if (r.coreCount == 1) {
        // A restored RunResult is indistinguishable from a fresh one.
        r.perCore = {CoreRunStats{0, r.core, r.wb, r.l1d}};
    }
    return cell;
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        ede_fatal("cannot create result-cache directory '", dir_,
                  "': ", ec.message());
    }
    // Sweep temp files stranded by a writer that died mid-store (a
    // crashed or SIGKILLed sweep): they are never renamed into place
    // and would otherwise accumulate forever.  A *live* concurrent
    // writer losing its tmp here merely skips that one store.
    for (const auto &entry :
         std::filesystem::directory_iterator(dir_, ec)) {
        if (entry.path().filename().string().find(".tmp.") !=
            std::string::npos) {
            std::filesystem::remove(entry.path(), ec);
        }
    }
}

std::string
ResultCache::pathFor(std::uint64_t fingerprint) const
{
    return dir_ + "/" + fingerprintHex(fingerprint) + ".snapshot";
}

std::optional<ExperimentCell>
ResultCache::load(const ExperimentPoint &point,
                  std::uint64_t fingerprint) const
{
    std::ifstream in(pathFor(fingerprint), std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream text;
    text << in.rdbuf();
    return deserializeCell(text.str(), point, fingerprint);
}

void
ResultCache::store(const ExperimentCell &cell) const
{
    const std::string path = pathFor(cell.fingerprint);
    // Unique temp name per thread so parallel jobs never collide;
    // the final rename is atomic, and racing writers of the same
    // fingerprint produce identical bytes.  The cell's HostProfile is
    // deliberately not serialized: host wall time varies run to run
    // (and between ticking modes), which would break that invariant.
    std::ostringstream tmp_name;
    tmp_name << path << ".tmp."
             << std::hash<std::thread::id>{}(std::this_thread::get_id());
    const std::string tmp = tmp_name.str();
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            ede_warn("result cache: cannot write '", tmp,
                     "'; skipping store");
            return;
        }
        out << serializeCell(cell);
        out.close();
        if (!out) {
            // Short write (disk full, I/O error): never rename a
            // truncated snapshot into place, and never leak the tmp.
            ede_warn("result cache: short write on '", tmp,
                     "'; skipping store");
            std::error_code ec;
            std::filesystem::remove(tmp, ec);
            return;
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        ede_warn("result cache: rename to '", path,
                 "' failed: ", ec.message());
        std::filesystem::remove(tmp, ec);
    }
}

} // namespace exp
} // namespace ede
