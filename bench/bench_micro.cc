/**
 * @file
 * google-benchmark microbenchmarks for the library's hot paths: EDM
 * operations, instruction encode/decode, cache accesses, one
 * benchmark per per-tick layer (NVM device, write buffer, issue
 * scan) and end-to-end simulator throughput.  These guard the
 * simulator's own performance (host time per simulated cycle), not
 * the paper's results.
 */

#include <benchmark/benchmark.h>

#include "common/random.hh"
#include "core/edm.hh"
#include "core/wait_counters.hh"
#include "isa/encoding.hh"
#include "mem/mem_system.hh"
#include "mem/nvm.hh"
#include "pipeline/core.hh"
#include "pipeline/write_buffer.hh"
#include "trace/builder.hh"

namespace ede {
namespace {

void
BM_EdmDefineLookupComplete(benchmark::State &state)
{
    Edm edm;
    SeqNum seq = 1;
    for (auto _ : state) {
        const Edk key = static_cast<Edk>(1 + (seq % 15));
        edm.specDefine(key, seq);
        benchmark::DoNotOptimize(edm.specLookup(key));
        edm.complete(key, seq);
        ++seq;
    }
}
BENCHMARK(BM_EdmDefineLookupComplete);

void
BM_EdmSquashRestore(benchmark::State &state)
{
    Edm edm;
    std::vector<std::pair<Edk, SeqNum>> survivors;
    for (SeqNum s = 1; s <= 8; ++s)
        survivors.emplace_back(static_cast<Edk>(s), s);
    for (auto _ : state) {
        edm.squashRestore(survivors);
        benchmark::DoNotOptimize(edm.specLookup(3));
    }
}
BENCHMARK(BM_EdmSquashRestore);

void
BM_WaitCounters(benchmark::State &state)
{
    WaitCounters c;
    StaticInst si;
    si.op = Op::Str;
    si.edkDef = 3;
    si.edkUse = 7;
    for (auto _ : state) {
        c.enter(si);
        benchmark::DoNotOptimize(c.keyClear(3));
        c.exit(si);
    }
}
BENCHMARK(BM_WaitCounters);

void
BM_EncodeDecode(benchmark::State &state)
{
    StaticInst si;
    si.op = Op::Str;
    si.src1 = 3;
    si.base = 0;
    si.size = 8;
    si.edkUse = 1;
    for (auto _ : state) {
        const auto word = encode(si);
        benchmark::DoNotOptimize(decode(*word));
    }
}
BENCHMARK(BM_EncodeDecode);

void
BM_CacheHit(benchmark::State &state)
{
    MemSystem mem{MemSystemParams{}};
    Cycle now = 0;
    // Warm one line.
    mem.warmLine(0x1000, 1);
    for (auto _ : state) {
        if (auto id = mem.sendLoad(0x1000, 8, now)) {
            while (!mem.consumeDone(*id))
                mem.tick(now++);
        }
    }
    benchmark::DoNotOptimize(now);
}
BENCHMARK(BM_CacheHit);

void
BM_NvmTickFullBufferWithReject(benchmark::State &state)
{
    // The WB/U steady state: all 128 WPQ slots pending, 5 media
    // writes in flight, and the LLC re-offering a writeback to a new
    // line every cycle, which the full buffer rejects.  One iteration
    // is one cycle: the re-offer plus the device tick.
    NvmParams p;
    NvmDevice nvm(p);
    Addr next_line = 0;
    auto fill = [&](Cycle now) {
        while (nvm.bufferOccupancy() < p.bufferSlots) {
            nvm.tryAccept(MemReq{kNoReq, ReqKind::Writeback, next_line, 64},
                          now);
            next_line += p.lineBytes;
        }
    };
    std::vector<MemResp> out;
    Cycle now = 0;
    fill(now);
    const MemReq rejected{kNoReq, ReqKind::Writeback,
                          static_cast<Addr>(1) << 40, 64};
    for (auto _ : state) {
        fill(now);
        benchmark::DoNotOptimize(nvm.tryAccept(rejected, now));
        nvm.tick(now++, out);
        out.clear();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(now));
    state.counters["rejects"] = static_cast<double>(
        nvm.stats().bufferFullRejects);
}
BENCHMARK(BM_NvmTickFullBufferWithReject);

void
BM_WriteBufferDrainSameLineChains(benchmark::State &state)
{
    // Drain 16 entries -- four warmed lines, each a chain of
    // store / overlapping store / clean / store -- so every tick
    // evaluates same-line gates.  One iteration is one full drain.
    struct Owner : WriteBufferOwner
    {
        void onWbComplete(const WbEntry &, Cycle) override {}
        bool storesOlderIncomplete(SeqNum) const override { return false; }
    } owner;
    MemSystem mem{MemSystemParams{}};
    WriteBuffer wb(16, 2, 64, mem, owner);
    for (int line = 0; line < 4; ++line)
        mem.warmLine(0x10000 + 64 * line, 1);
    SeqNum seq = 1;
    Cycle now = 0;
    std::uint64_t ticks = 0;
    for (auto _ : state) {
        for (int line = 0; line < 4; ++line) {
            for (int k = 0; k < 4; ++k) {
                WbEntry e;
                e.seq = seq++;
                e.addr = 0x10000 + 64 * line + (k == 3 ? 8 : 0);
                e.si.op = k == 2 ? Op::DcCvap : Op::Str;
                e.size = k == 2 ? 0 : 8;
                wb.insert(e);
            }
        }
        while (!wb.empty()) {
            mem.tick(now);
            wb.tick(now++);
            ++ticks;
        }
        benchmark::DoNotOptimize(wb.stats());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ticks));
    state.counters["line_gated"] = static_cast<double>(
        wb.stats().lineGated);
}
BENCHMARK(BM_WriteBufferDrainSameLineChains);

void
BM_IssueScanFullIq(benchmark::State &state)
{
    // Each block is a load that misses to NVM followed by 48 ALU ops
    // that need its result: the 40-entry issue queue fills and is
    // scanned every cycle of the ~500-cycle miss.  Reference ticking
    // makes every one of those cycles a host tick.
    Trace t;
    TraceBuilder b(t);
    const Addr nvm = MemSystemParams{}.map.nvmBase();
    for (int block = 0; block < 20; ++block) {
        b.ldr(1, 2, nvm + 4096 * static_cast<Addr>(block));
        for (int i = 0; i < 48; ++i)
            b.alu(static_cast<RegIndex>(3 + i % 4), 1);
    }
    CoreParams params;
    params.ticking = TickingMode::Reference;
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        MemSystem mem{MemSystemParams{}};
        OoOCore core(params, mem);
        cycles += core.run(t);
        benchmark::DoNotOptimize(core.stats());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
}
BENCHMARK(BM_IssueScanFullIq)->Unit(benchmark::kMicrosecond);

void
BM_SimulatorThroughput(benchmark::State &state)
{
    // Simulated cycles per host-second on a representative mix.
    Trace t;
    TraceBuilder b(t);
    Rng rng(1);
    for (int i = 0; i < 5000; ++i) {
        const auto pick = rng.below(10);
        const Addr a = 0x100000 + 64 * rng.below(512);
        if (pick < 4) {
            b.alu(static_cast<RegIndex>(1 + rng.below(8)), kZeroReg);
        } else if (pick < 7) {
            b.ldr(2, 3, a);
        } else if (pick < 9) {
            b.str(4, 5, a, pick);
        } else {
            b.cvap(5, a);
        }
    }
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        MemSystem mem{MemSystemParams{}};
        CoreParams params;
        OoOCore core(params, mem);
        cycles += core.run(t);
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorThroughput)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace ede

BENCHMARK_MAIN();
