#include "workloads/suite.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"

namespace scsim {

namespace {

/** Exactly as many names as AppSpec has members: a member added to the
 *  struct without a row in forEachField() fails to compile here or at
 *  the row count below. */
[[maybe_unused]] void
bindEveryMember(const AppSpec &a)
{
    [[maybe_unused]] const auto &[f01, f02, f03, f04, f05, f06, f07, f08,
                                  f09, f10, f11, f12, f13, f14, f15, f16,
                                  f17, f18, f19, f20, f21, f22, f23] = a;
}

constexpr int
fieldRows()
{
    AppSpec a;
    int rows = 0;
    forEachField(a, [&rows](const char *, auto &) { ++rows; });
    return rows;
}
static_assert(fieldRows() == 23, "forEachField(AppSpec) rows");

/** Generate one warp shape of @p len instructions for @p spec. */
WarpProgram
genShape(int len, const AppSpec &spec, std::uint8_t region, Rng &rng)
{
    WarpProgram prog;
    prog.code.reserve(static_cast<std::size_t>(len) + 2);

    int nAcc = std::clamp(spec.ilp, 1, spec.regWindow - 4);
    RegIndex poolBase = static_cast<RegIndex>(nAcc);
    int poolSize = spec.regWindow - nAcc;
    // Keep the pool even-sized so parity-preserving picks stay in it.
    int parityPool = poolSize & ~1;

    auto pickPool = [&] {
        return static_cast<RegIndex>(
            poolBase + static_cast<RegIndex>(
                rng.next(static_cast<std::uint64_t>(poolSize))));
    };
    // Compiler register allocation produces *phases*: stretches of
    // code whose operands cluster in one half of the register ids
    // (one bank of a 2-bank sub-core file).  The compiler cannot
    // coordinate these phases across warps (Sec. III-A), which is the
    // contention RBA exploits.  With conflictBias probability a source
    // is drawn from the current phase's parity class.
    const int phaseLen = 48;
    const int phase0 = static_cast<int>(rng.next(2));
    // The phase's hot register: re-read by a large fraction of
    // instructions in kernels with tight operand reuse.
    auto hotReg = [&](int i) {
        int idx = ((i / phaseLen) * 7 + phase0) % poolSize;
        return static_cast<RegIndex>(poolBase + idx);
    };
    auto pickParity = [&](int parity) {
        // Registers of the wanted parity inside the pool.
        int first = (static_cast<int>(poolBase) % 2 == parity) ? 0 : 1;
        int count = (parityPool - first + 1) / 2;
        int k = static_cast<int>(rng.next(
            static_cast<std::uint64_t>(count)));
        return static_cast<RegIndex>(poolBase + first + 2 * k);
    };

    double memCut = spec.memFrac;
    double fmaCut = memCut + spec.fmaFrac;
    double sfuCut = fmaCut + spec.sfuFrac;
    double tensorCut = sfuCut + spec.tensorFrac;

    for (int i = 0; i < len; ++i) {
        // During a conflict-biased instruction, the whole operand set
        // (accumulator included) sits in the phase's parity class, so
        // on a 2-bank sub-core every read of this instruction lands in
        // one bank.
        bool phased = parityPool >= 4 && nAcc >= 2
            && rng.chance(spec.conflictBias);
        int parity = ((i / phaseLen) + phase0) & 1;
        RegIndex acc = phased
            ? static_cast<RegIndex>(2 * (i % (nAcc / 2)) + parity)
            : static_cast<RegIndex>(i % nAcc);
        double r = rng.nextDouble();
        if (r < memCut) {
            bool shared = spec.smemBytesPerBlock > 0 && rng.chance(0.5);
            MemInfo m;
            if (shared) {
                m.space = MemSpace::Shared;
                m.sectors = static_cast<std::uint8_t>(
                    1 + rng.next(2));   // mild smem bank conflicts
                m.footprintBytes = std::max<std::uint64_t>(
                    spec.smemBytesPerBlock, 1024);
            } else {
                m.space = MemSpace::Global;
                m.region = region;
                m.sectors = static_cast<std::uint8_t>(spec.sectors);
                m.footprintBytes = spec.footprintMB << 20;
                m.randomAccess = spec.randomMem;
                m.strideBytes = 128;
                m.stepBytes = 128;
            }
            RegIndex addr = pickPool();
            if (!shared && rng.chance(spec.storeFrac)) {
                prog.code.push_back(Instruction::store(
                    Opcode::STG, addr, acc, m));
            } else {
                prog.code.push_back(Instruction::load(
                    shared ? Opcode::LDS : Opcode::LDG, acc, addr, m));
            }
        } else if (r < fmaCut) {
            RegIndex s1 = rng.chance(spec.hotRegFrac) ? hotReg(i)
                : phased ? pickParity(parity) : pickPool();
            RegIndex s2 = phased ? pickParity(parity) : pickPool();
            prog.code.push_back(
                Instruction::alu(Opcode::FMA, acc, acc, s1, s2));
        } else if (r < sfuCut) {
            prog.code.push_back(
                Instruction::alu(Opcode::SFU, acc, acc));
        } else if (r < tensorCut) {
            RegIndex s1 = phased ? pickParity(parity) : pickPool();
            RegIndex s2 = phased ? pickParity(parity) : pickPool();
            prog.code.push_back(
                Instruction::alu(Opcode::TENSOR, acc, acc, s1, s2));
        } else {
            RegIndex s1 = rng.chance(spec.hotRegFrac) ? hotReg(i)
                : phased ? pickParity(parity) : pickPool();
            if (rng.chance(0.5)) {
                RegIndex s2 = phased ? pickParity(parity) : pickPool();
                prog.code.push_back(
                    Instruction::alu(Opcode::IMAD, acc, acc, s1, s2));
            } else {
                prog.code.push_back(
                    Instruction::alu(Opcode::IADD, acc, acc, s1));
            }
        }
    }
    prog.code.push_back(Instruction::barrier());
    prog.code.push_back(Instruction::exit());
    return prog;
}

} // namespace

Application
buildApp(const AppSpec &spec, std::uint64_t seedSalt)
{
    scsim_assert(spec.regWindow >= 6, "register window too small");
    scsim_assert(spec.numKernels >= 1, "app needs at least one kernel");

    Application app;
    app.name = spec.name;
    app.suite = spec.suite;
    Rng rng(hashString(spec.name) ^ seedSalt
            ^ 0x9d3f8a25c41e67b9ULL);

    int nDivergent = static_cast<int>(std::lround(
        spec.divKernelFrac * spec.numKernels));
    for (int k = 0; k < spec.numKernels; ++k) {
        bool divergent = k < nDivergent;
        double kernelScale = 0.75 + 0.5 * rng.nextDouble();

        // Divergent kernels model compute-heavy warp-specialized work
        // (decompression, hash probing): the long warps are dominated
        // by ALU work, which is what makes piling them onto one
        // sub-core expensive.
        AppSpec kspec = spec;
        if (divergent)
            kspec.memFrac *= 0.3;

        KernelDesc kd;
        kd.name = spec.name + "-k" + std::to_string(k);
        kd.numBlocks = spec.numBlocks;
        kd.warpsPerBlock = spec.warpsPerBlock;
        kd.regsPerThread = std::max(spec.regsPerThread, spec.regWindow);
        kd.smemBytesPerBlock = spec.smemBytesPerBlock;

        for (int w = 0; w < spec.warpsPerBlock; ++w) {
            double mult = divergent
                ? spec.divPattern[static_cast<std::size_t>(w)
                                  % spec.divPattern.size()]
                : 1.0;
            double jitter = 1.0
                + (rng.nextDouble() * 2.0 - 1.0) * spec.divNoise;
            int len = std::max(8, static_cast<int>(std::lround(
                spec.baseInsts * mult * jitter * kernelScale)));
            kd.shapes.push_back(genShape(
                len, kspec, static_cast<std::uint8_t>(k % 4), rng));
            kd.shapeOfWarp.push_back(static_cast<std::uint16_t>(w));
        }
        kd.validate();
        app.kernels.push_back(std::move(kd));
    }
    return app;
}

namespace {

int
scaled(int blocks, double scale)
{
    return std::max(8, static_cast<int>(std::lround(blocks * scale)));
}

/** TPC-H query spec; compressed adds the warp-specialized kernel. */
AppSpec
tpchQuery(int q, bool compressed, double scale)
{
    AppSpec a;
    a.suite = compressed ? "tpch-c" : "tpch-u";
    a.name = (compressed ? "tpcC-q" : "tpcU-q") + std::to_string(q);
    a.numBlocks = scaled(80, scale);
    a.warpsPerBlock = 8;
    a.regsPerThread = 32;
    a.smemBytesPerBlock = 8 * 1024;
    a.numKernels = 4 + q % 3;
    a.baseInsts = 320 + 40 * (q % 7);
    a.fmaFrac = 0.15;
    a.memFrac = 0.28 + 0.01 * (q % 5);
    a.sectors = (q % 2) ? 8 : 4;
    a.randomMem = (q % 3) != 0;
    a.footprintMB = 256;
    a.ilp = 4;
    a.regWindow = 16;
    a.conflictBias = 0.15;
    // One long-running warp every four (Sec. VI-C); compressed queries
    // carry the snappy-decompression warp-specialization (Sec. VI).
    double amp = compressed ? 4.4 + 0.7 * (q % 5)
                            : 3.8 + 0.4 * (q % 6);
    a.divPattern = { amp, 1.0, 1.0, 1.0 };
    a.divNoise = 0.15;
    a.divKernelFrac = compressed ? 0.8 : 0.65;
    return a;
}

void
addTpch(std::vector<AppSpec> &out, bool compressed, double scale)
{
    for (int q = 1; q <= 22; ++q)
        out.push_back(tpchQuery(q, compressed, scale));
}

void
addParboil(std::vector<AppSpec> &out, double scale)
{
    auto base = [&](const char *name) {
        AppSpec a;
        a.suite = "parboil";
        a.name = std::string("pb-") + name;
        a.numBlocks = scaled(96, scale);
        a.warpsPerBlock = 8;
        a.baseInsts = 700;
        return a;
    };
    {   // MRI-Q: FMA-dense, heavily bank-conflict-prone (RF bound).
        AppSpec a = base("mriq");
        a.fmaFrac = 0.80; a.memFrac = 0.02; a.sfuFrac = 0.06;
        a.ilp = 6; a.regWindow = 24; a.conflictBias = 0.92;
        a.baseInsts = 900; a.footprintMB = 4;
        out.push_back(a);
    }
    {   // MRI-Gridding.
        AppSpec a = base("mrig");
        a.fmaFrac = 0.68; a.memFrac = 0.08; a.sfuFrac = 0.05;
        a.ilp = 5; a.regWindow = 20; a.conflictBias = 0.70;
        a.footprintMB = 8;
        out.push_back(a);
    }
    {   // SAD: integer + memory.
        AppSpec a = base("sad");
        a.fmaFrac = 0.10; a.memFrac = 0.25; a.sectors = 8;
        a.conflictBias = 0.45; a.regWindow = 20;
        out.push_back(a);
    }
    {   // SGEMM: FMA + shared-memory tiles.
        AppSpec a = base("sgemm");
        a.fmaFrac = 0.65; a.memFrac = 0.15;
        a.smemBytesPerBlock = 16 * 1024;
        a.ilp = 6; a.regWindow = 28; a.conflictBias = 0.60;
        a.baseInsts = 1000; a.footprintMB = 8;
        out.push_back(a);
    }
    {   // CUTCP: FMA + transcendental.
        AppSpec a = base("cutcp");
        a.fmaFrac = 0.60; a.sfuFrac = 0.15; a.memFrac = 0.08;
        a.ilp = 4; a.regWindow = 20; a.conflictBias = 0.55;
        a.footprintMB = 8;
        out.push_back(a);
    }
    {   // Stencil.
        AppSpec a = base("stencil");
        a.fmaFrac = 0.40; a.memFrac = 0.30; a.sectors = 4;
        a.conflictBias = 0.35; a.footprintMB = 256;
        out.push_back(a);
    }
    {   // SpMV.
        AppSpec a = base("spmv");
        a.fmaFrac = 0.25; a.memFrac = 0.35; a.randomMem = true;
        a.sectors = 12; a.footprintMB = 256;
        out.push_back(a);
    }
    {   // LBM.
        AppSpec a = base("lbm");
        a.fmaFrac = 0.30; a.memFrac = 0.40; a.sectors = 4;
        a.footprintMB = 512;
        out.push_back(a);
    }
    {   // Histogramming.
        AppSpec a = base("histo");
        a.fmaFrac = 0.05; a.memFrac = 0.30; a.randomMem = true;
        a.sectors = 16; a.footprintMB = 64;
        out.push_back(a);
    }
    {   // TPACF.
        AppSpec a = base("tpacf");
        a.fmaFrac = 0.50; a.sfuFrac = 0.20; a.memFrac = 0.08;
        a.regWindow = 20; a.conflictBias = 0.40;
        a.footprintMB = 8;
        out.push_back(a);
    }
    {   // BFS: irregular, mildly divergent.
        AppSpec a = base("bfs");
        a.fmaFrac = 0.05; a.memFrac = 0.35; a.randomMem = true;
        a.sectors = 12; a.divPattern = { 2.0, 1.0, 1.0, 1.0 };
        a.divNoise = 0.30;
        out.push_back(a);
    }
}

void
addRodinia(std::vector<AppSpec> &out, double scale)
{
    auto base = [&](const char *name) {
        AppSpec a;
        a.suite = "rodinia";
        a.name = std::string("rod-") + name;
        a.numBlocks = scaled(80, scale);
        a.warpsPerBlock = 8;
        a.baseInsts = 650;
        return a;
    };
    {   // lavaMD: particle potential, collector-pressure heavy.
        AppSpec a = base("lavaMD");
        a.fmaFrac = 0.70; a.memFrac = 0.05; a.sfuFrac = 0.05;
        a.ilp = 3; a.regWindow = 28; a.conflictBias = 0.88;
        a.baseInsts = 900; a.footprintMB = 4;
        out.push_back(a);
    }
    {   // Back propagation.
        AppSpec a = base("bp");
        a.fmaFrac = 0.55; a.memFrac = 0.12;
        a.smemBytesPerBlock = 8 * 1024;
        a.ilp = 4; a.regWindow = 20; a.conflictBias = 0.65;
        a.footprintMB = 8;
        out.push_back(a);
    }
    {   // SRAD: RBA beats fully-connected here (Fig 14).
        AppSpec a = base("srad");
        a.fmaFrac = 0.60; a.memFrac = 0.10; a.sfuFrac = 0.05;
        a.ilp = 5; a.regWindow = 24; a.conflictBias = 0.85;
        a.hotRegFrac = 0.30;
        a.baseInsts = 800; a.footprintMB = 8;
        out.push_back(a);
    }
    {   // Hotspot 3D.
        AppSpec a = base("htsp");
        a.fmaFrac = 0.45; a.memFrac = 0.28; a.sectors = 4;
        a.conflictBias = 0.50; a.regWindow = 20;
        a.footprintMB = 256;
        out.push_back(a);
    }
    struct Simple { const char *name; double fma, mem, sfu; int ilp,
                    window; double conflict; bool random; int sectors;
                    std::uint32_t smem; };
    const Simple rest[] = {
        { "hotspot", 0.45, 0.25, 0.00, 4, 18, 0.45, false, 4, 4096 },
        { "nw",      0.05, 0.25, 0.00, 2, 12, 0.30, false, 4, 8192 },
        { "kmeans",  0.40, 0.30, 0.00, 4, 16, 0.40, false, 4, 0 },
        { "strmcl",  0.35, 0.35, 0.00, 4, 16, 0.35, false, 8, 0 },
        { "bfs",     0.05, 0.35, 0.00, 2, 12, 0.20, true, 12, 0 },
        { "gaussian",0.50, 0.20, 0.00, 4, 18, 0.50, false, 4, 0 },
        { "lud",     0.55, 0.15, 0.00, 4, 20, 0.55, false, 4, 16384 },
        { "cfd",     0.60, 0.25, 0.05, 5, 24, 0.50, false, 4, 0 },
        { "myocyte", 0.50, 0.05, 0.30, 1, 20, 0.40, false, 4, 0 },
        { "hrtwall", 0.45, 0.20, 0.10, 3, 20, 0.45, false, 8, 0 },
        { "leuko",   0.60, 0.15, 0.10, 4, 22, 0.55, false, 4, 0 },
        { "prtclf",  0.35, 0.20, 0.20, 3, 16, 0.35, true, 8, 0 },
        { "pathf",   0.10, 0.25, 0.00, 3, 12, 0.25, false, 4, 8192 },
        { "nn",      0.30, 0.40, 0.00, 4, 14, 0.30, false, 4, 0 },
        { "dwt2d",   0.50, 0.20, 0.00, 4, 18, 0.45, false, 4, 4096 },
        { "btree",   0.05, 0.35, 0.00, 2, 12, 0.20, true, 12, 0 },
    };
    for (const Simple &s : rest) {
        AppSpec a = base(s.name);
        a.fmaFrac = s.fma; a.memFrac = s.mem; a.sfuFrac = s.sfu;
        a.ilp = s.ilp; a.regWindow = s.window;
        a.conflictBias = s.conflict; a.randomMem = s.random;
        a.sectors = s.sectors; a.smemBytesPerBlock = s.smem;
        if (s.random)
            a.footprintMB = 256;
        out.push_back(a);
    }
}

void
addCugraph(std::vector<AppSpec> &out, double scale)
{
    // Register-intensive with a tight reuse window: many RF accesses
    // over few distinct registers, so RBA helps more than the extra
    // banks of a fully-connected SM (Sec. VI-B1).
    const char *names[] = { "lou", "bfs", "sssp", "pgrnk", "wcc",
                            "katz", "hits" };
    int i = 0;
    for (const char *n : names) {
        AppSpec a;
        a.suite = "cugraph";
        a.name = std::string("cg-") + n;
        a.numBlocks = scaled(96, scale);
        a.warpsPerBlock = 8;
        a.baseInsts = 750 + 50 * (i % 3);
        a.fmaFrac = 0.45;
        a.memFrac = 0.08 + 0.02 * (i % 3);
        a.randomMem = true;
        a.sectors = 4;
        a.footprintMB = 16;
        a.ilp = 4;
        a.regWindow = 12;         // tight reuse
        a.conflictBias = 0.95;
        a.hotRegFrac = 0.50;
        a.divPattern = { 1.6, 1.0, 1.0, 1.0 };
        a.divNoise = 0.20;
        a.divKernelFrac = 0.5;
        a.numKernels = 2;
        out.push_back(a);
        ++i;
    }
}

void
addPolybench(std::vector<AppSpec> &out, double scale)
{
    struct Poly { const char *name; double fma, mem, conflict;
                  int ilp, window; };
    const Poly apps[] = {
        { "2Dcon", 0.55, 0.22, 0.88, 6, 20 },
        { "3Dcon", 0.55, 0.25, 0.82, 6, 22 },
        { "gemm",  0.60, 0.18, 0.55, 6, 24 },
        { "2mm",   0.58, 0.20, 0.55, 6, 24 },
        { "3mm",   0.58, 0.20, 0.55, 6, 24 },
        { "atax",  0.45, 0.30, 0.45, 4, 16 },
        { "bicg",  0.45, 0.30, 0.45, 4, 16 },
        { "mvt",   0.45, 0.28, 0.45, 4, 16 },
        { "syrk",  0.55, 0.20, 0.50, 5, 20 },
        { "syr2k", 0.55, 0.22, 0.50, 5, 20 },
        { "gesummv", 0.45, 0.30, 0.40, 4, 16 },
        { "grmschm", 0.50, 0.25, 0.45, 4, 18 },
        { "corr",  0.50, 0.25, 0.45, 4, 18 },
        { "covar", 0.50, 0.25, 0.45, 4, 18 },
        { "fdtd2d", 0.50, 0.28, 0.45, 4, 18 },
    };
    for (const Poly &p : apps) {
        AppSpec a;
        a.suite = "polybench";
        a.name = std::string("ply-") + p.name;
        a.numBlocks = scaled(72, scale);
        a.warpsPerBlock = 8;
        a.baseInsts = 700;
        a.fmaFrac = p.fma;
        a.memFrac = p.mem;
        a.conflictBias = p.conflict;
        a.ilp = p.ilp;
        a.regWindow = p.window;
        a.sectors = 4;
        bool resident = std::string(p.name).find("con") == 0
            || std::string(p.name).find("mm") != std::string::npos
            || std::string(p.name).find("syr") == 0
            || std::string(p.name) == "gemm";
        a.footprintMB = resident ? 12 : 128;
        out.push_back(a);
    }
}

void
addDeepbench(std::vector<AppSpec> &out, double scale)
{
    struct Db { const char *name; double tensor, fma, sfu, mem; };
    const Db apps[] = {
        { "conv-tr",  0.35, 0.30, 0.00, 0.18 },
        { "conv-inf", 0.40, 0.28, 0.00, 0.16 },
        { "rnn-tr",   0.10, 0.50, 0.10, 0.15 },
        { "rnn-inf",  0.12, 0.52, 0.10, 0.14 },
        { "gemm-tr",  0.40, 0.30, 0.00, 0.14 },
        { "gemm-inf", 0.42, 0.30, 0.00, 0.12 },
        { "lstm-tr",  0.10, 0.48, 0.14, 0.15 },
        { "lstm-inf", 0.12, 0.50, 0.14, 0.14 },
    };
    for (const Db &d : apps) {
        AppSpec a;
        a.suite = "deepbench";
        a.name = std::string("db-") + d.name;
        a.numBlocks = scaled(64, scale);
        a.warpsPerBlock = 8;
        a.baseInsts = 800;
        a.tensorFrac = d.tensor;
        a.fmaFrac = d.fma;
        a.sfuFrac = d.sfu;
        a.memFrac = d.mem;
        a.smemBytesPerBlock = 16 * 1024;
        a.ilp = 5;
        a.regWindow = 24;
        a.conflictBias = 0.55;
        a.footprintMB = 16;
        out.push_back(a);
    }
}

void
addCutlass(std::vector<AppSpec> &out, double scale)
{
    const char *names[] = { "256", "512", "1024", "2048", "4096",
                            "splitk", "conv" };
    int i = 0;
    for (const char *n : names) {
        AppSpec a;
        a.suite = "cutlass";
        a.name = std::string("cutlass-") + n;
        a.numBlocks = scaled(48 + 12 * (i % 4), scale);
        a.warpsPerBlock = 8;
        a.baseInsts = 950;
        a.tensorFrac = 0.40;
        a.fmaFrac = 0.28;
        a.memFrac = 0.12;
        a.smemBytesPerBlock = 32 * 1024;
        a.ilp = 6;
        a.regWindow = 28;
        a.conflictBias = (i == 4) ? 0.70 : 0.40;   // 4096 is RF-bound
        a.footprintMB = 16;
        out.push_back(a);
        ++i;
    }
}

} // namespace

std::vector<AppSpec>
standardSuite(double scale)
{
    std::vector<AppSpec> out;
    out.reserve(112);
    addTpch(out, /*compressed=*/false, scale);
    addTpch(out, /*compressed=*/true, scale);
    addParboil(out, scale);
    addRodinia(out, scale);
    addCugraph(out, scale);
    addPolybench(out, scale);
    addDeepbench(out, scale);
    addCutlass(out, scale);
    scsim_assert(out.size() == 112, "suite table must hold 112 apps");
    return out;
}

std::vector<AppSpec>
suiteApps(const std::string &suite, double scale)
{
    std::vector<AppSpec> all = standardSuite(scale);
    std::vector<AppSpec> out;
    for (auto &a : all)
        if (a.suite == suite)
            out.push_back(std::move(a));
    if (out.empty())
        scsim_throw(WorkloadError, "unknown suite '%s'", suite.c_str());
    return out;
}

std::vector<AppSpec>
sensitiveApps(double scale)
{
    static const char *names[] = {
        "tpcU-q8", "tpcC-q9", "pb-mriq", "pb-mrig", "pb-sad",
        "pb-sgemm", "pb-cutcp", "cutlass-4096", "rod-lavaMD", "rod-bp",
        "rod-srad", "rod-htsp", "cg-lou", "cg-bfs", "cg-sssp",
        "cg-pgrnk", "cg-wcc", "cg-katz", "cg-hits", "ply-2Dcon",
        "ply-3Dcon", "db-conv-tr", "db-conv-inf", "db-rnn-tr",
        "db-rnn-inf",
    };
    std::vector<AppSpec> out;
    for (const char *n : names)
        out.push_back(findApp(n, scale));
    return out;
}

std::vector<AppSpec>
rfSensitiveApps(double scale)
{
    static const char *names[] = {
        "pb-mriq", "pb-mrig", "pb-sgemm", "pb-cutcp", "rod-lavaMD",
        "rod-bp", "rod-srad", "rod-htsp", "cg-lou", "cg-bfs",
        "cg-sssp", "cg-pgrnk", "cg-wcc", "cg-katz", "cg-hits",
        "ply-2Dcon", "ply-3Dcon", "cutlass-4096",
    };
    std::vector<AppSpec> out;
    for (const char *n : names)
        out.push_back(findApp(n, scale));
    return out;
}

AppSpec
findApp(const std::string &name, double scale)
{
    for (auto &a : standardSuite(scale))
        if (a.name == name)
            return a;
    scsim_throw(WorkloadError, "unknown application '%s'", name.c_str());
}

} // namespace scsim
