/** @file Tests for kernel descriptions and the text trace format. */

#include <array>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "expect_throw.hh"
#include "trace/kernel.hh"
#include "trace/trace_io.hh"
#include "workloads/microbench.hh"
#include "workloads/suite.hh"

namespace scsim {
namespace {

KernelDesc
tinyKernel()
{
    KernelDesc k;
    k.name = "tiny";
    k.numBlocks = 2;
    k.warpsPerBlock = 2;
    k.regsPerThread = 8;
    WarpProgram p;
    p.code.push_back(Instruction::alu(Opcode::FMA, 0, 0, 1, 2));
    MemInfo m;
    m.region = 3;
    m.sectors = 8;
    m.randomAccess = true;
    m.footprintBytes = 1 << 20;
    p.code.push_back(Instruction::load(Opcode::LDG, 1, 2, m));
    p.code.push_back(Instruction::store(Opcode::STG, 2, 1, m));
    p.code.push_back(Instruction::barrier());
    p.code.push_back(Instruction::exit());
    k.shapes.push_back(p);
    k.shapeOfWarp = { 0, 0 };
    return k;
}

TEST(KernelDesc, TotalInstructionsCountsGrid)
{
    KernelDesc k = tinyKernel();
    EXPECT_EQ(k.totalWarpInstructions(), 2u * 2u * 5u);
}

TEST(KernelDesc, RegBytesPerWarp)
{
    KernelDesc k = tinyKernel();
    EXPECT_EQ(k.regBytesPerWarp(), 8u * 32u * 4u);
}

TEST(KernelDescThrow, ValidateCatchesMissingExit)
{
    KernelDesc k = tinyKernel();
    k.shapes[0].code.pop_back();
    EXPECT_THROW_WITH(k.validate(), WorkloadError, "must end in EXIT");
}

TEST(KernelDescThrow, ValidateCatchesRegisterOverflow)
{
    KernelDesc k = tinyKernel();
    k.regsPerThread = 2;
    EXPECT_THROW_WITH(k.validate(), WorkloadError, "out of window");
}

TEST(KernelDescThrow, ValidateCatchesBadShapeIndex)
{
    KernelDesc k = tinyKernel();
    k.shapeOfWarp[1] = 7;
    EXPECT_THROW_WITH(k.validate(), WorkloadError, "out of range");
}

TEST(KernelDescThrow, ValidateCatchesShapeMapSizeMismatch)
{
    KernelDesc k = tinyKernel();
    k.warpsPerBlock = 3;
    EXPECT_THROW_WITH(k.validate(), WorkloadError, "shapeOfWarp");
}

TEST(TraceIo, RoundTripPreservesEverything)
{
    Application app;
    app.name = "roundtrip";
    app.suite = "testsuite";
    app.kernels.push_back(tinyKernel());
    app.kernels.push_back(makeFmaMicro(FmaLayout::Unbalanced, 16, 2));

    std::stringstream ss;
    writeApplication(ss, app);
    Application back = readApplication(ss);

    EXPECT_EQ(back.name, app.name);
    EXPECT_EQ(back.suite, app.suite);
    ASSERT_EQ(back.kernels.size(), app.kernels.size());
    for (std::size_t k = 0; k < app.kernels.size(); ++k) {
        const KernelDesc &a = app.kernels[k];
        const KernelDesc &b = back.kernels[k];
        EXPECT_EQ(b.name, a.name);
        EXPECT_EQ(b.numBlocks, a.numBlocks);
        EXPECT_EQ(b.warpsPerBlock, a.warpsPerBlock);
        EXPECT_EQ(b.regsPerThread, a.regsPerThread);
        EXPECT_EQ(b.smemBytesPerBlock, a.smemBytesPerBlock);
        EXPECT_EQ(b.shapeOfWarp, a.shapeOfWarp);
        ASSERT_EQ(b.shapes.size(), a.shapes.size());
        for (std::size_t s = 0; s < a.shapes.size(); ++s) {
            const auto &ca = a.shapes[s].code;
            const auto &cb = b.shapes[s].code;
            ASSERT_EQ(cb.size(), ca.size());
            for (std::size_t i = 0; i < ca.size(); ++i) {
                EXPECT_EQ(cb[i].op, ca[i].op);
                EXPECT_EQ(cb[i].dst, ca[i].dst);
                EXPECT_EQ(cb[i].srcs, ca[i].srcs);
                if (isMemory(ca[i].op)) {
                    EXPECT_EQ(cb[i].mem.space, ca[i].mem.space);
                    EXPECT_EQ(cb[i].mem.region, ca[i].mem.region);
                    EXPECT_EQ(cb[i].mem.sectors, ca[i].mem.sectors);
                    EXPECT_EQ(cb[i].mem.footprintBytes,
                              ca[i].mem.footprintBytes);
                    EXPECT_EQ(cb[i].mem.randomAccess,
                              ca[i].mem.randomAccess);
                }
            }
        }
    }
}

TEST(TraceIo, RoundTripSyntheticSuiteApp)
{
    Application app = buildApp(findApp("tpcU-q3", 0.1));
    std::stringstream ss;
    writeApplication(ss, app);
    Application back = readApplication(ss);
    EXPECT_EQ(back.totalWarpInstructions(),
              app.totalWarpInstructions());
    EXPECT_EQ(back.kernels.size(), app.kernels.size());
}

TEST(TraceIoDeath, RejectsGarbageHeader)
{
    std::stringstream ss("not a trace\n");
    EXPECT_EXIT(readApplication(ss), ::testing::ExitedWithCode(1),
                "expected 'app");
}

TEST(TraceIoDeath, RejectsTruncatedShape)
{
    std::stringstream ss(
        "app x y\nkernel k blocks=1 warps=1 regs=8 smem=0\n"
        "shape 3\nEXIT -1 -1 -1 -1\n");
    EXPECT_EXIT(readApplication(ss), ::testing::ExitedWithCode(1),
                "EOF inside shape");
}

TEST(TraceIoDeath, RejectsRefusedNumbers)
{
    const std::string good =
        "app x y\nkernel k blocks=1 warps=1 regs=8 smem=0\nshape 2\n"
        "LDG 1 2 -1 -1 space=G region=3 sectors=8 stride=128 step=128 "
        "fp=1048576 random=0\nEXIT -1 -1 -1 -1\nmap 0\nendkernel\n"
        "endapp\n";
    {
        std::stringstream ss(good);
        EXPECT_EQ(readApplication(ss).kernels.size(), 1u);
    }
    // Each edit of the good trace, and the error it must end in.
    const std::vector<std::array<std::string, 3>> cases = {
        { "shape 2", "shape 99999999999999", "EOF inside shape" },
        { "shape 2", "shape x", "bad shape length 'x'" },
        { "sectors=8", "sectors=268", "bad sectors '268'" },
        { "region=3", "region=-1", "bad region '-1'" },
        { "map 0", "map 65536", "bad shape index '65536'" },
        { "space=G", "space=X", "bad space 'X'" },
        { "random=0", "random=2", "bad random '2'" },
        { "blocks=1", "blocks=1x", "bad blocks '1x'" },
        { "LDG 1", "LDG 65537", "bad register '65537'" },
        { "fp=1048576", "fp=0", "bad fp '0'" },
    };
    for (const auto &[from, to, error] : cases) {
        std::string text = good;
        text.replace(text.find(from), from.size(), to);
        SCOPED_TRACE(to);
        std::stringstream ss(text);
        EXPECT_EXIT(readApplication(ss), ::testing::ExitedWithCode(1),
                    error);
    }
}

TEST(Application, ValidateThrowsOnEmpty)
{
    Application app;
    app.name = "empty";
    EXPECT_THROW_WITH(app.validate(), WorkloadError, "no kernels");
}

} // namespace
} // namespace scsim
