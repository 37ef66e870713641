#include "trace/trace_io.hh"

#include <fstream>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <string_view>
#include <vector>

#include "common/logging.hh"
#include "common/state_io.hh"

namespace scsim {

namespace {

/** `space=` spellings, indexed by MemSpace. */
const char *const kSpaceNames[] = { "G", "S" };

void
writeInstruction(std::ostream &os, const Instruction &inst)
{
    os << toString(inst.op) << ' ' << inst.dst;
    for (RegIndex r : inst.srcs)
        os << ' ' << r;
    if (isMemory(inst.op)) {
        const MemInfo &m = inst.mem;
        os << " space=" << kSpaceNames[static_cast<int>(m.space)]
           << " region=" << static_cast<int>(m.region)
           << " sectors=" << static_cast<int>(m.sectors)
           << " stride=" << m.strideBytes
           << " step=" << m.stepBytes
           << " fp=" << m.footprintBytes
           << " random=" << (m.randomAccess ? 1 : 0);
    }
    os << '\n';
}

/** The space- or tab-separated words of @p line. */
std::vector<std::string_view>
splitWords(std::string_view line)
{
    std::vector<std::string_view> words;
    std::size_t at = 0;
    while ((at = line.find_first_not_of(" \t", at)) != line.npos) {
        std::size_t end = line.find_first_of(" \t", at);
        words.push_back(line.substr(at, end - at));
        at = end;
    }
    return words;
}

/** Decode @p text into @p out through decodeValue, held to @p range;
 *  fatal, naming @p what, if refused. */
template <class T>
void
decodeOrDie(std::string_view text, T &&out, int lineNo, std::string_view what,
            std::optional<FieldRange> range = {})
{
    if (decodeValue(text, out, range) != Decoded::Ok)
        scsim_fatal("trace line %d: bad %.*s '%.*s'", lineNo,
                    static_cast<int>(what.size()), what.data(),
                    static_cast<int>(text.size()), text.data());
}

/** Split a `key=value` word; fatal if it has no '='. */
std::pair<std::string_view, std::string_view>
splitAttr(std::string_view word, int lineNo)
{
    std::size_t eq = word.find('=');
    if (eq == word.npos)
        scsim_fatal("trace line %d: bad attribute '%.*s'", lineNo,
                    static_cast<int>(word.size()), word.data());
    return { word.substr(0, eq), word.substr(eq + 1) };
}

Instruction
parseInstruction(const std::string &line, int lineNo)
{
    std::vector<std::string_view> words = splitWords(line);
    if (words.size() < 5)
        scsim_fatal("trace line %d: malformed operands", lineNo);
    Instruction inst;
    inst.op = opcodeFromString(std::string(words[0]));
    const FieldRange reg = inRange(kNoReg, kMaxRegs - 1, "register");
    decodeOrDie(words[1], inst.dst, lineNo, "register", reg);
    for (std::size_t i = 0; i < inst.srcs.size(); ++i)
        decodeOrDie(words[2 + i], inst.srcs[i], lineNo, "register", reg);
    if (!isMemory(inst.op) && words.size() > 5)
        scsim_fatal("trace line %d: unexpected '%.*s'", lineNo,
                    static_cast<int>(words[5].size()), words[5].data());
    MemInfo &m = inst.mem;
    for (std::size_t i = 5; i < words.size(); ++i) {
        auto [key, val] = splitAttr(words[i], lineNo);
        if (key == "space")
            decodeOrDie(val, byName(m.space, kSpaceNames), lineNo, key);
        else if (key == "region")
            decodeOrDie(val, m.region, lineNo, key);
        else if (key == "sectors")
            decodeOrDie(val, m.sectors, lineNo, key);
        else if (key == "stride")
            decodeOrDie(val, m.strideBytes, lineNo, key);
        else if (key == "step")
            decodeOrDie(val, m.stepBytes, lineNo, key);
        else if (key == "fp")  // addresses are taken modulo it
            decodeOrDie(val, m.footprintBytes, lineNo, key,
                        inRange(1, std::numeric_limits<std::int64_t>::max()));
        else if (key == "random")
            decodeOrDie(val, m.randomAccess, lineNo, key);
        else
            scsim_fatal("trace line %d: unknown attribute '%.*s'", lineNo,
                        static_cast<int>(key.size()), key.data());
    }
    return inst;
}

/** A trace's non-empty, non-comment lines, trimmed, with their line
 *  numbers. */
struct TraceLines
{
    std::vector<std::pair<int, std::string>> lines;
    std::size_t next = 0;

    explicit TraceLines(std::istream &is)
    {
        std::string line;
        int lineNo = 0;
        while (std::getline(is, line)) {
            ++lineNo;
            auto first = line.find_first_not_of(" \t\r");
            if (first == std::string::npos || line[first] == '#')
                continue;
            auto last = line.find_last_not_of(" \t\r");
            lines.emplace_back(lineNo,
                               line.substr(first, last - first + 1));
        }
    }

    std::size_t left() const { return lines.size() - next; }

    /** The next line into @p line and its number into @p lineNo;
     *  false at the end. */
    bool
    get(std::string &line, int &lineNo)
    {
        if (next == lines.size())
            return false;
        lineNo = lines[next].first;
        line = std::move(lines[next].second);
        ++next;
        return true;
    }
};

} // namespace

void
writeApplication(std::ostream &os, const Application &app)
{
    os << "# subcoresim trace v1\n";
    os << "app " << app.name << ' ' << app.suite << '\n';
    for (const auto &k : app.kernels) {
        os << "kernel " << k.name
           << " blocks=" << k.numBlocks
           << " warps=" << k.warpsPerBlock
           << " regs=" << k.regsPerThread
           << " smem=" << k.smemBytesPerBlock << '\n';
        for (const auto &shape : k.shapes) {
            os << "shape " << shape.code.size() << '\n';
            for (const auto &inst : shape.code)
                writeInstruction(os, inst);
        }
        os << "map";
        for (std::uint16_t s : k.shapeOfWarp)
            os << ' ' << s;
        os << "\nendkernel\n";
    }
    os << "endapp\n";
}

Application
readApplication(std::istream &is)
{
    Application app;
    TraceLines in(is);
    std::string line;
    int lineNo = 0;

    if (!in.get(line, lineNo) || line.rfind("app ", 0) != 0)
        scsim_fatal("trace line %d: expected 'app <name> <suite>'",
                    lineNo);
    {
        std::vector<std::string_view> words = splitWords(line);
        app.name = words.size() > 1 ? words[1] : "";
        app.suite = words.size() > 2 ? words[2] : "";
    }

    while (in.get(line, lineNo)) {
        if (line == "endapp")
            break;
        if (line.rfind("kernel ", 0) != 0)
            scsim_fatal("trace line %d: expected kernel/endapp, got '%s'",
                        lineNo, line.c_str());
        KernelDesc k;
        std::vector<std::string_view> words = splitWords(line);
        k.name = words.size() > 1 ? words[1] : "";
        for (std::size_t i = 2; i < words.size(); ++i) {
            auto [key, val] = splitAttr(words[i], lineNo);
            if (key == "blocks")
                decodeOrDie(val, k.numBlocks, lineNo, key);
            else if (key == "warps")
                decodeOrDie(val, k.warpsPerBlock, lineNo, key);
            else if (key == "regs")
                decodeOrDie(val, k.regsPerThread, lineNo, key);
            else if (key == "smem")
                decodeOrDie(val, k.smemBytesPerBlock, lineNo, key);
            else
                scsim_fatal("trace line %d: unknown kernel attr '%.*s'",
                            lineNo, static_cast<int>(key.size()),
                            key.data());
        }
        // shapes and map
        while (in.get(line, lineNo)) {
            if (line == "endkernel")
                break;
            words = splitWords(line);
            if (words[0] == "shape" && words.size() == 2) {
                std::size_t n = 0;
                decodeOrDie(words[1], n, lineNo, "shape length");
                // Each instruction takes a line, so a count past the
                // lines left is a truncated (or damaged) trace.
                if (n > in.left())
                    scsim_fatal("trace line %d: EOF inside shape (%zu "
                                "instructions, %zu lines left)", lineNo,
                                n, in.left());
                WarpProgram prog;
                prog.code.reserve(n);
                for (std::size_t i = 0; i < n; ++i) {
                    in.get(line, lineNo);
                    prog.code.push_back(parseInstruction(line, lineNo));
                }
                k.shapes.push_back(std::move(prog));
            } else if (words[0] == "map") {
                for (std::size_t i = 1; i < words.size(); ++i)
                    decodeOrDie(words[i], k.shapeOfWarp.emplace_back(),
                                lineNo, "shape index");
            } else {
                scsim_fatal("trace line %d: unexpected '%s'", lineNo,
                            line.c_str());
            }
        }
        k.validate();
        app.kernels.push_back(std::move(k));
    }
    app.validate();
    return app;
}

void
saveApplication(const std::string &path, const Application &app)
{
    std::ofstream out(path);
    if (!out)
        scsim_fatal("cannot open '%s' for writing", path.c_str());
    writeApplication(out, app);
}

Application
loadApplication(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        scsim_fatal("cannot open trace '%s'", path.c_str());
    return readApplication(in);
}

} // namespace scsim
