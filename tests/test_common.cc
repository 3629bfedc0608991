/**
 * @file
 * Unit tests for the common utilities: RNG, units, tables, arguments.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <utility>

#include "common/args.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "common/units.hh"

namespace pipelayer {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.nextU64() == b.nextU64() ? 1 : 0;
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, UniformIntRespectsBound)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.uniformInt(17), 17u);
}

TEST(Rng, UniformIntCoversRange)
{
    Rng rng(9);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 4000; ++i)
        ++seen[static_cast<size_t>(rng.uniformInt(8))];
    for (int count : seen)
        EXPECT_GT(count, 300); // each bucket ~500 expected
}

TEST(Rng, GaussianMomentsAreStandard)
{
    Rng rng(13);
    double sum = 0.0, sq = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, GaussianScaleAndShift)
{
    Rng rng(17);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(3.0, 0.5);
    EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic)
{
    Rng parent(42);
    Rng s1 = parent.split(1);
    Rng s2 = parent.split(2);
    Rng s1_again = Rng(42).split(1);
    EXPECT_EQ(s1.nextU64(), s1_again.nextU64());
    EXPECT_NE(s1.nextU64(), s2.nextU64());
}

TEST(Units, Conversions)
{
    EXPECT_DOUBLE_EQ(units::ns(1.0), 1e-9);
    EXPECT_DOUBLE_EQ(units::us(2.0), 2e-6);
    EXPECT_DOUBLE_EQ(units::pJ(3.0), 3e-12);
    EXPECT_DOUBLE_EQ(units::nJ(1.5), 1.5e-9);
}

TEST(Units, FormatTimePicksUnit)
{
    EXPECT_EQ(formatTime(1.5), "1.5 s");
    EXPECT_EQ(formatTime(2e-3), "2 ms");
    EXPECT_EQ(formatTime(3.2e-6), "3.2 us");
    EXPECT_EQ(formatTime(29.31e-9), "29.3 ns");
}

TEST(Units, FormatEnergyPicksUnit)
{
    EXPECT_EQ(formatEnergy(1.08e-12), "1.08 pJ");
    EXPECT_EQ(formatEnergy(3.91e-9), "3.91 nJ");
}

TEST(Units, GeomeanBasics)
{
    const double vals[] = {2.0, 8.0};
    EXPECT_NEAR(geomean(vals, 2), 4.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomean(vals, 0), 0.0);
    const double one[] = {42.0};
    EXPECT_NEAR(geomean(one, 1), 42.0, 1e-12);
}

TEST(Table, AlignsAndPrintsRows)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addSeparator();
    t.addRow({"beta", "22"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("beta"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
    EXPECT_EQ(t.rows(), 3u);
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(2.0, 0), "2");
}

namespace {

ArgParser
parse(std::vector<const char *> argv)
{
    argv.insert(argv.begin(), "prog");
    return ArgParser(static_cast<int>(argv.size()), argv.data());
}

} // namespace

TEST(Args, PositionalsAndDefaults)
{
    const ArgParser args = parse({"VGG-A", "2.0"});
    EXPECT_EQ(args.positionalCount(), 2u);
    EXPECT_EQ(args.positional(0), "VGG-A");
    EXPECT_EQ(args.positional(1), "2.0");
    EXPECT_EQ(args.positional(5, "fallback"), "fallback");
}

TEST(Args, OptionsWithValues)
{
    const ArgParser args = parse({"--lambda=2.5", "--batch=32",
                                  "--name=VGG-E"});
    EXPECT_DOUBLE_EQ(args.number("lambda", 1.0), 2.5);
    EXPECT_EQ(args.integer("batch", 64), 32);
    EXPECT_EQ(args.str("name"), "VGG-E");
    EXPECT_DOUBLE_EQ(args.number("missing", 7.0), 7.0);
}

TEST(Args, Flags)
{
    const ArgParser args = parse({"--stats", "net"});
    EXPECT_TRUE(args.flag("stats"));
    EXPECT_FALSE(args.flag("timeline"));
    EXPECT_EQ(args.positional(0), "net");
}

TEST(Args, MixedOrderParses)
{
    const ArgParser args = parse({"--a=1", "pos0", "--b", "pos1"});
    EXPECT_EQ(args.positional(0), "pos0");
    EXPECT_EQ(args.positional(1), "pos1");
    EXPECT_TRUE(args.flag("b"));
}

TEST(ArgsDeath, MalformedNumberIsFatal)
{
    const ArgParser args = parse({"--lambda=abc"});
    EXPECT_EXIT(args.number("lambda", 1.0),
                ::testing::ExitedWithCode(1), "not a number");
}

TEST(ArgsDeath, NonFiniteOrOutOfRangeNumberIsFatal)
{
    const std::pair<const char *, const char *> cases[] = {
        {"nan", "is not a finite number"},
        {"inf", "is not a finite number"},
        {"-inf", "is not a finite number"},
        {"1e999", "is out of range"},
        {"-1e999", "is out of range"},
        {"1e-400", "is out of range"},
    };
    for (const auto &[text, message] : cases) {
        const std::string arg = std::string("--threshold=") + text;
        SCOPED_TRACE(arg);
        const ArgParser args = parse({arg.c_str()});
        EXPECT_EXIT(args.number("threshold", 2.0),
                    ::testing::ExitedWithCode(1), arg + " " + message);
    }
}

TEST(ArgsDeath, OutOfRangeIntegerIsFatal)
{
    for (const char *text :
         {"99999999999999999999", "-99999999999999999999",
          "9223372036854775808"}) {
        const std::string arg = std::string("--max-batch=") + text;
        SCOPED_TRACE(arg);
        const ArgParser args = parse({arg.c_str()});
        EXPECT_EXIT(args.integer("max-batch", 8),
                    ::testing::ExitedWithCode(1), arg + " is out of range");
    }
}

TEST(Args, IntegerRangeEndsParseExactly)
{
    const ArgParser args = parse({"--hi=9223372036854775807",
                                  "--lo=-9223372036854775808"});
    EXPECT_EQ(args.integer("hi", 0), INT64_MAX);
    EXPECT_EQ(args.integer("lo", 0), INT64_MIN);
}

TEST(ArgsDeath, UnknownOptionIsFatal)
{
    const ArgParser args = parse({"--lamda=1"});
    EXPECT_EXIT(args.rejectUnknown({"lambda"}),
                ::testing::ExitedWithCode(1), "unknown option");
}

} // namespace
} // namespace pipelayer
