#include <gtest/gtest.h>

#include <sstream>

#include "io/lexer.hpp"
#include "io/parser.hpp"
#include "io/writer.hpp"
#include "model/paper_example.hpp"
#include "rover/rover_model.hpp"

namespace paws::io {
namespace {

using namespace paws::literals;

// ---------------------------------------------------------------- lexer --

TEST(LexerTest, TokenKindsAndPositions) {
  const LexResult r = lex("problem \"x\" {\n  pmax 14.9W -> }\n");
  ASSERT_TRUE(r.ok());
  ASSERT_GE(r.tokens.size(), 8u);
  EXPECT_EQ(r.tokens[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(r.tokens[0].text, "problem");
  EXPECT_EQ(r.tokens[1].kind, TokenKind::kString);
  EXPECT_EQ(r.tokens[1].text, "x");
  EXPECT_EQ(r.tokens[2].kind, TokenKind::kLBrace);
  EXPECT_EQ(r.tokens[3].kind, TokenKind::kIdentifier);
  EXPECT_EQ(r.tokens[3].line, 2);
  EXPECT_EQ(r.tokens[3].column, 3);
  EXPECT_EQ(r.tokens[4].kind, TokenKind::kNumber);
  EXPECT_EQ(r.tokens[4].text, "14.9");
  EXPECT_EQ(r.tokens[5].text, "W");
  EXPECT_EQ(r.tokens[6].kind, TokenKind::kArrow);
  EXPECT_EQ(r.tokens.back().kind, TokenKind::kEof);
}

TEST(LexerTest, CommentsAreSkipped) {
  const LexResult r = lex("# header\nfoo # trailing\nbar");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.tokens.size(), 3u);  // foo, bar, eof
  EXPECT_EQ(r.tokens[0].text, "foo");
  EXPECT_EQ(r.tokens[1].text, "bar");
}

TEST(LexerTest, NegativeNumbers) {
  const LexResult r = lex("-42 - 7");
  ASSERT_FALSE(r.ok()) << "bare '-' is an error";
  EXPECT_EQ(r.tokens[0].text, "-42");
}

TEST(LexerTest, UnterminatedString) {
  const LexResult r = lex("\"oops\nnext");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.errors[0].line, 1);
}

// --------------------------------------------------------------- parser --

constexpr const char* kSample = R"(
# A trimmed rover-like file.
problem "demo" {
  pmax 19W
  pmin 9W
  background 3.7W

  resource heater
  resource driving

  task heat  { resource heater  delay 5  power 11.3W }
  task drive { resource driving delay 10 power 13.8W }

  min heat -> drive 5
  max heat -> drive 50
  release drive 10
  deadline drive 100
}
)";

TEST(ParserTest, ParsesSampleProblem) {
  const ParseResult r = parseProblem(kSample);
  ASSERT_TRUE(r.ok()) << (r.errors.empty() ? "" : format(r.errors[0]));
  const Problem& p = *r.problem;
  EXPECT_EQ(p.name(), "demo");
  EXPECT_EQ(p.maxPower(), 19_W);
  EXPECT_EQ(p.minPower(), 9_W);
  EXPECT_EQ(p.backgroundPower(), Watts::fromWatts(3.7));
  EXPECT_EQ(p.numTasks(), 2u);
  EXPECT_EQ(p.numResources(), 2u);
  ASSERT_TRUE(p.findTask("heat").has_value());
  EXPECT_EQ(p.task(*p.findTask("heat")).power, Watts::fromWatts(11.3));
  EXPECT_EQ(p.task(*p.findTask("drive")).delay, Duration(10));
  ASSERT_EQ(p.constraints().size(), 4u);
  EXPECT_EQ(p.constraints()[0].kind, TimingConstraint::Kind::kMinSeparation);
  EXPECT_EQ(p.constraints()[1].kind, TimingConstraint::Kind::kMaxSeparation);
  EXPECT_EQ(p.constraints()[1].separation, Duration(50));
}

TEST(ParserTest, MilliwattSuffix) {
  const ParseResult r = parseProblem(
      "problem p { resource r task t { resource r delay 1 power 250mW } }");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.problem->task(*r.problem->findTask("t")).power,
            Watts::fromMilliwatts(250));
}

TEST(ParserTest, UnknownTaskReference) {
  const ParseResult r = parseProblem(
      "problem p { resource r min nope -> alsono 5 }");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("unknown task"), std::string::npos);
}

TEST(ParserTest, MissingTaskAttribute) {
  const ParseResult r = parseProblem(
      "problem p { resource r task t { resource r delay 5 } }");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("needs resource, delay and power"),
            std::string::npos);
}

TEST(ParserTest, DuplicateNamesReported) {
  const ParseResult r = parseProblem(
      "problem p { resource r resource r }");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("duplicate resource"),
            std::string::npos);
}

TEST(ParserTest, FractionalTicksRejected) {
  const ParseResult r = parseProblem(
      "problem p { resource r task t { resource r delay 2.5 power 1W } }");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("integral ticks"), std::string::npos);
}

TEST(ParserTest, CollectsMultipleErrors) {
  const ParseResult r = parseProblem(
      "problem p { bogus 12 min a -> b 5 }");
  ASSERT_FALSE(r.ok());
  EXPECT_GE(r.errors.size(), 1u);
}

TEST(ParserTest, ErrorPositionsAreUseful) {
  const ParseResult r = parseProblem("problem p {\n  pmax oops\n}");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.errors[0].line, 2);
  EXPECT_EQ(format(r.errors[0]).substr(0, 2), "2:");
}

TEST(ParserTest, MissingFileSurfacesError) {
  const ParseResult r = parseProblemFile("/nonexistent/xyz.paws");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("cannot open"), std::string::npos);
}

// --------------------------------------------------------------- writer --

void expectEquivalent(const Problem& a, const Problem& b) {
  EXPECT_EQ(a.numTasks(), b.numTasks());
  EXPECT_EQ(a.numResources(), b.numResources());
  EXPECT_EQ(a.maxPower(), b.maxPower());
  EXPECT_EQ(a.minPower(), b.minPower());
  EXPECT_EQ(a.backgroundPower(), b.backgroundPower());
  for (TaskId v : a.taskIds()) {
    const Task& ta = a.task(v);
    const auto vb = b.findTask(ta.name);
    ASSERT_TRUE(vb.has_value()) << ta.name;
    const Task& tb = b.task(*vb);
    EXPECT_EQ(ta.delay, tb.delay);
    EXPECT_EQ(ta.power, tb.power);
    EXPECT_EQ(ta.criticality, tb.criticality);
    EXPECT_EQ(a.resource(ta.resource).name, b.resource(tb.resource).name);
  }
  ASSERT_EQ(a.constraints().size(), b.constraints().size());
  for (std::size_t i = 0; i < a.constraints().size(); ++i) {
    const TimingConstraint& ca = a.constraints()[i];
    const TimingConstraint& cb = b.constraints()[i];
    EXPECT_EQ(ca.kind, cb.kind);
    EXPECT_EQ(ca.separation, cb.separation);
    EXPECT_EQ(a.task(ca.to).name, b.task(cb.to).name);
  }
}

/// text -> parse -> text must be a fixed point: the schedule cache keys
/// problems by canonical text, and tools re-save what they loaded, so a
/// drifting writer would silently split cache keys and churn diffs.
void expectFixedPoint(const Problem& p) {
  const std::string t1 = problemToText(p);
  const ParseResult r = parseProblem(t1);
  ASSERT_TRUE(r.ok()) << (r.errors.empty() ? t1 : format(r.errors[0]));
  EXPECT_EQ(problemToText(*r.problem), t1);
}

TEST(WriterTest, PaperExampleRoundTrips) {
  const Problem original = makePaperExampleProblem();
  const ParseResult r = parseProblem(problemToText(original));
  ASSERT_TRUE(r.ok()) << (r.errors.empty() ? "" : format(r.errors[0]));
  expectEquivalent(original, *r.problem);
}

TEST(WriterTest, TextIsAParsePrintFixedPoint) {
  expectFixedPoint(makePaperExampleProblem());
  expectFixedPoint(rover::makeRoverProblem(rover::RoverCase::kWorst, 2));
  Problem p("rd");
  const ResourceId r1 = p.addResource("r1");
  const TaskId t = p.addTask("t", 5_s, 2_W, r1);
  p.release(t, Time(7));
  p.deadline(t, Time(40));
  p.setCriticality(t, 3);
  p.setBackgroundPower(Watts::fromMilliwatts(1));
  expectFixedPoint(p);
}

TEST(WriterTest, NonIdentifierNamesAreQuotedAndRoundTrip) {
  // Names the lexer cannot read bare: spaces, dashes, leading digits. The
  // writer must quote them (regression: it used to emit them bare, and the
  // reparse failed — text -> parse -> text was not even defined).
  Problem p("awkward");
  const ResourceId r1 = p.addResource("main bus");
  const TaskId a = p.addTask("warm-up", 2_s, 1_W, r1);
  const TaskId b = p.addTask("2nd pass", 3_s, 2_W, r1);
  p.minSeparation(a, b, 1_s);
  p.release(b, Time(2));
  const std::string t1 = problemToText(p);
  EXPECT_NE(t1.find("\"warm-up\""), std::string::npos) << t1;
  EXPECT_NE(t1.find("\"2nd pass\""), std::string::npos) << t1;
  EXPECT_NE(t1.find("\"main bus\""), std::string::npos) << t1;
  const ParseResult r = parseProblem(t1);
  ASSERT_TRUE(r.ok()) << (r.errors.empty() ? t1 : format(r.errors[0]));
  expectEquivalent(p, *r.problem);
  EXPECT_EQ(problemToText(*r.problem), t1);
}

TEST(WriterTest, RoverProblemRoundTrips) {
  const Problem original = rover::makeRoverProblem(rover::RoverCase::kWorst, 2);
  const ParseResult r = parseProblem(problemToText(original));
  ASSERT_TRUE(r.ok()) << (r.errors.empty() ? "" : format(r.errors[0]));
  expectEquivalent(original, *r.problem);
}

TEST(WriterTest, ReleaseAndDeadlineRoundTrip) {
  Problem p("rd");
  const ResourceId r1 = p.addResource("r1");
  const TaskId t = p.addTask("t", 5_s, 2_W, r1);
  p.release(t, Time(7));
  p.deadline(t, Time(40));
  const ParseResult r = parseProblem(problemToText(p));
  ASSERT_TRUE(r.ok());
  expectEquivalent(p, *r.problem);
}

TEST(WriterTest, DroppableRankRoundTrips) {
  Problem p("shed");
  const ResourceId r1 = p.addResource("r1");
  p.addTask("critical", 5_s, 2_W, r1);
  const TaskId d = p.addTask("optional", 3_s, 1_W, r1);
  p.setCriticality(d, 7);
  const std::string text = problemToText(p);
  EXPECT_NE(text.find("droppable 7"), std::string::npos) << text;
  const ParseResult r = parseProblem(text);
  ASSERT_TRUE(r.ok()) << (r.errors.empty() ? "" : format(r.errors[0]));
  expectEquivalent(p, *r.problem);
  EXPECT_FALSE(r.problem->task(*r.problem->findTask("critical")).droppable());
  EXPECT_TRUE(r.problem->task(*r.problem->findTask("optional")).droppable());
}

TEST(ParserTest, ParsesBatteryAndModeBlocks) {
  const ParseResult r = parseProblem(R"(
problem "mission" {
  pmax 19W
  pmin 9W
  resource r
  task t { resource r delay 5 power 11W }
  battery {
    rate 2W 1250
    rate 6W 1600
    recoverable 300
    recovery 500mW
  }
  mode nominal  { ceiling 255 pmax_scale 100 pmin_scale 100 }
  mode survival { ceiling 0   pmax_scale 90  pmin_scale 0 }
}
)");
  ASSERT_TRUE(r.ok()) << (r.errors.empty() ? "" : format(r.errors[0]));
  const Problem& p = *r.problem;
  ASSERT_TRUE(p.battery().has_value());
  ASSERT_EQ(p.battery()->bands.size(), 2u);
  EXPECT_EQ(p.battery()->bands[0].threshold, 2_W);
  EXPECT_EQ(p.battery()->bands[0].factorPermille, 1250);
  EXPECT_EQ(p.battery()->bands[1].threshold, 6_W);
  EXPECT_EQ(p.battery()->bands[1].factorPermille, 1600);
  EXPECT_EQ(p.battery()->recoverablePermille, 300);
  EXPECT_EQ(p.battery()->recoveryRate, Watts::fromMilliwatts(500));
  ASSERT_EQ(p.modes().size(), 2u);
  EXPECT_EQ(p.modes()[0].name, "nominal");
  EXPECT_EQ(p.modes()[0].ceiling, 255);
  EXPECT_EQ(p.modes()[1].name, "survival");
  EXPECT_EQ(p.modes()[1].ceiling, 0);
  EXPECT_EQ(p.modes()[1].pmaxPct, 90u);
  EXPECT_EQ(p.modes()[1].pminPct, 0u);
}

TEST(WriterTest, BatteryAndModesRoundTrip) {
  Problem p("mission");
  p.setMaxPower(19_W);
  p.setMinPower(9_W);
  const ResourceId r = p.addResource("r");
  p.addTask("t", Duration(5), 11_W, r);
  BatteryTraits traits;
  traits.bands.push_back(RateBand{2_W, 1250});
  traits.bands.push_back(RateBand{6_W, 1600});
  traits.recoverablePermille = 300;
  traits.recoveryRate = Watts::fromMilliwatts(500);
  p.setBattery(traits);
  p.addMode(SystemMode{"nominal", 255, 100, 100});
  p.addMode(SystemMode{"survival", 0, 90, 0});

  const std::string t1 = problemToText(p);
  const ParseResult parsed = parseProblem(t1);
  ASSERT_TRUE(parsed.ok())
      << (parsed.errors.empty() ? "" : format(parsed.errors[0]));
  ASSERT_TRUE(parsed.problem->battery().has_value());
  EXPECT_EQ(*parsed.problem->battery(), traits);
  EXPECT_EQ(parsed.problem->modes(), p.modes());
  // Parse-print fixed point.
  EXPECT_EQ(problemToText(*parsed.problem), t1);
}

TEST(WriterTest, ProblemsWithoutBatteryOrModesEmitNoSuchBlocks) {
  const Problem p = rover::makeRoverProblem(rover::RoverCase::kTypical);
  const std::string text = problemToText(p);
  EXPECT_EQ(text.find("battery"), std::string::npos);
  EXPECT_EQ(text.find("mode "), std::string::npos);
}

TEST(ParserTest, RejectsRateFactorBelowUnity) {
  const ParseResult r = parseProblem(
      "problem p { resource r battery { rate 2W 900 } }");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("[1000, 1000000]"), std::string::npos);
}

TEST(ParserTest, RejectsNonIncreasingRateThresholds) {
  const ParseResult r = parseProblem(
      "problem p { resource r battery { rate 6W 1600 rate 2W 1250 } }");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("strictly increase"), std::string::npos);
}

TEST(ParserTest, RejectsDuplicateBattery) {
  const ParseResult r = parseProblem(
      "problem p { resource r battery { rate 2W 1250 } battery { } }");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("duplicate battery"), std::string::npos);
}

TEST(ParserTest, RejectsModeCeilingOutOfRange) {
  const ParseResult r = parseProblem(
      "problem p { resource r mode m { ceiling 300 } }");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("[0, 255]"), std::string::npos);
}

TEST(ParserTest, RejectsDuplicateModeName) {
  const ParseResult r = parseProblem(
      "problem p { resource r mode m { ceiling 2 } mode m { ceiling 1 } }");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("duplicate mode"), std::string::npos);
}

TEST(ParserTest, RejectsRecoverableFractionOutOfRange) {
  const ParseResult r = parseProblem(
      "problem p { resource r battery { recoverable 1500 } }");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("[0, 1000]"), std::string::npos);
}

TEST(ParserTest, BareDroppableMeansRankOne) {
  const ParseResult r = parseProblem(
      "problem p {\n  resource r1\n"
      "  task t { resource r1 delay 5 power 2W droppable }\n}");
  ASSERT_TRUE(r.ok()) << (r.errors.empty() ? "" : format(r.errors[0]));
  EXPECT_EQ(r.problem->task(*r.problem->findTask("t")).criticality, 1);
}

TEST(ParserTest, RejectsDroppableRankOutOfRange) {
  const ParseResult r = parseProblem(
      "problem p {\n  resource r1\n"
      "  task t { resource r1 delay 5 power 2W droppable 300 }\n}");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("[1, 255]"), std::string::npos);
}

TEST(WriterTest, ScheduleCsv) {
  Problem p("csv");
  const ResourceId r1 = p.addResource("cpu");
  p.addTask("a", 5_s, 2_W, r1);
  p.addTask("b", 3_s, 4_W, r1);
  const Schedule s(&p, {Time(0), Time(3), Time(0)});
  std::ostringstream csv;
  writeScheduleCsv(csv, s);
  EXPECT_EQ(csv.str(),
            "task,resource,start,end,power_mw,energy_mwticks\n"
            "b,cpu,0,3,4000,12000\n"
            "a,cpu,3,8,2000,10000\n");
}

}  // namespace
}  // namespace paws::io
