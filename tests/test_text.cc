/**
 * @file
 * Unit tests for the text module: token tables, the strict number
 * reader and the key=value trace reader.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/text.hh"

namespace mcdla
{
namespace
{

class TextTest : public ::testing::Test
{
  protected:
    void SetUp() override { LogConfig::throwOnError = true; }
    void TearDown() override { LogConfig::throwOnError = false; }
};

enum class Fruit
{
    Apple,
    Pear,
    Quince,
};

constexpr TokenRow<Fruit> kFruitRows[] = {
    {Fruit::Apple, "apple", "", "Malus domestica", "crisp"},
    {Fruit::Pear, "pear", "pyrus p"},
    {Fruit::Quince, "quince"},
};

constexpr TokenTable<Fruit> kFruits{"fruit", kFruitRows};

/** The message of the FatalError @p fn throws ("" if none). */
template <typename Fn>
std::string
fatalMessage(Fn fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

// ---------------------------------------------------------- token tables

TEST_F(TextTest, TokenTableParsesTokensAliasesAndNames)
{
    EXPECT_EQ(kFruits.parse("apple"), Fruit::Apple);
    EXPECT_EQ(kFruits.parse("Malus domestica"), Fruit::Apple);
    EXPECT_EQ(kFruits.parse("pyrus"), Fruit::Pear);
    EXPECT_EQ(kFruits.parse("p"), Fruit::Pear);
    EXPECT_EQ(kFruits.parse("quince"), Fruit::Quince);
    // Neither a part of an alias list nor a prefix is a spelling.
    EXPECT_THROW(kFruits.parse("pyrus p"), FatalError);
    EXPECT_THROW(kFruits.parse("pyr"), FatalError);
    EXPECT_THROW(kFruits.parse(""), FatalError);
}

TEST_F(TextTest, TokenTableUnknownValueIsOneFatalLine)
{
    EXPECT_EQ(fatalMessage([] { kFruits.parse("fig"); }),
              "fatal: unknown fruit 'fig' (apple, pear, quince)");
}

TEST_F(TextTest, TokenTableAccessorsReadTheRows)
{
    EXPECT_STREQ(kFruits.token(Fruit::Pear), "pear");
    EXPECT_STREQ(kFruits.name(Fruit::Apple), "Malus domestica");
    EXPECT_STREQ(kFruits.name(Fruit::Quince), "quince");
    EXPECT_STREQ(kFruits.description(Fruit::Apple), "crisp");
    EXPECT_STREQ(kFruits.description(Fruit::Pear), "");
    EXPECT_EQ(kFruits.list(), "apple, pear, quince");
    EXPECT_EQ(kFruits.list("|"), "apple|pear|quince");
    ASSERT_EQ(kFruits.all().size(), 3u);
    EXPECT_EQ(kFruits.all()[2].value, Fruit::Quince);
    std::vector<Fruit> order;
    for (const auto &row : kFruits.all())
        order.push_back(row.value);
    EXPECT_EQ(order,
              (std::vector<Fruit>{Fruit::Apple, Fruit::Pear,
                                  Fruit::Quince}));
    EXPECT_THROW(kFruits.token(static_cast<Fruit>(7)), PanicError);
}

// -------------------------------------------------------------- numbers

TEST(ReadNumber, IntegersMustBeWholeAndFitTheirType)
{
    EXPECT_EQ(readNumber<int>("42"), 42);
    EXPECT_EQ(readNumber<int>("-7"), -7);
    EXPECT_EQ(readNumber<int>("2147483647"), 2147483647);
    EXPECT_EQ(readNumber<std::int64_t>("4294967297"), 4294967297LL);
    EXPECT_EQ(readNumber<unsigned>("4294967295"), 4294967295u);
    for (const char *bad : {"", "x", "3.5", "1e3", "12abc", "0x10"})
        EXPECT_FALSE(readNumber<int>(bad)) << bad;
    EXPECT_FALSE(readNumber<int>("2147483648"));
    EXPECT_FALSE(readNumber<int>("-2147483649"));
    EXPECT_FALSE(readNumber<int>("4294967297"));
    EXPECT_FALSE(readNumber<unsigned>("-1"));
    EXPECT_FALSE(readNumber<unsigned>("4294967296"));
    EXPECT_FALSE(readNumber<std::int64_t>("9223372036854775808"));
}

TEST(ReadNumber, DoublesMustBeWholeAndFinite)
{
    EXPECT_EQ(readNumber<double>("0.5"), 0.5);
    EXPECT_EQ(readNumber<double>("1e3"), 1000.0);
    EXPECT_EQ(readNumber<double>("-2"), -2.0);
    for (const char *bad :
         {"", "nan", "NaN", "inf", "-inf", "infinity", "1e999", "0.5x",
          "soon"})
        EXPECT_FALSE(readNumber<double>(bad)) << bad;
}

TEST(ReadNumber, FormsNameWhatIsAccepted)
{
    EXPECT_EQ(numberForm<double>(), "a finite number");
    EXPECT_EQ(numberForm<std::int64_t>(), "an integer");
    EXPECT_EQ(numberForm<int>(), "an integer in [-2147483648, 2147483647]");
}

// --------------------------------------------------------------- traces

struct Item
{
    std::string name;
    double arrivalSec = 0.0;
    int size = 1;
};

std::vector<Item>
readItems(const std::string &text)
{
    std::istringstream in(text);
    return readTrace<Item>(
        in, "item trace", "item",
        [](Item &item, const TraceReader &trace,
           const TraceReader::Field &field) {
            if (field.key != "size")
                return false;
            item.size = trace.number<int>(field);
            return true;
        },
        [](const Item &item, const TraceReader &trace) {
            if (item.size < 1)
                trace.fail("non-positive size");
        });
}

TEST_F(TextTest, TraceReaderSkipsCommentsAndSortsStably)
{
    const std::vector<Item> items = readItems(
        "# header\n"
        "\n"
        "arrival=2 size=3 # trailing comment\n"
        "   \t\n"
        "arrival=1\tname=first\r\n"
        "arrival=2 name=tie\n");
    ASSERT_EQ(items.size(), 3u);
    EXPECT_EQ(items[0].name, "first");
    EXPECT_EQ(items[0].arrivalSec, 1.0);
    // Names default by input position; equal arrivals keep input order.
    EXPECT_EQ(items[1].name, "item0");
    EXPECT_EQ(items[1].size, 3);
    EXPECT_EQ(items[2].name, "tie");
}

TEST_F(TextTest, TraceReaderErrorsNameTheLineAndKey)
{
    const std::pair<const char *, const char *> cases[] = {
        {"arrival=0\nsize=2\n", "item trace line 2: arrival= is required"},
        {"arrival=0 colour=red\n",
         "item trace line 1: unknown key 'colour'"},
        {"\narrival=0 size\n", "item trace line 2: token 'size' is not "
                               "key=value"},
        {"arrival=nan\n",
         "item trace line 1: arrival=nan is not a finite number"},
        {"arrival=-1\n", "item trace line 1: negative arrival time"},
        {"arrival=0 size=4294967297\n",
         "item trace line 1: size=4294967297 is not an integer in "
         "[-2147483648, 2147483647]"},
        {"arrival=0 size=0\n", "item trace line 1: non-positive size"},
    };
    for (const auto &[text, message] : cases)
        EXPECT_EQ(fatalMessage([text = text] { readItems(text); }),
                  std::string("fatal: ") + message)
            << text;
}

} // namespace
} // namespace mcdla
