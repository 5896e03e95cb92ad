#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <random>
#include <string>

#include "analysis/diagnostics.h"
#include "structures/bulk_load.h"
#include "structures/generators.h"
#include "structures/io.h"

namespace fmtk {
namespace {

bool Has(const DiagnosticSink& sink, DiagCode code) {
  for (const Diagnostic& d : sink.diagnostics()) {
    if (d.code == code) {
      return true;
    }
  }
  return false;
}

TEST(StructureIoTest, ParseBasic) {
  Result<Structure> s = ParseStructure(R"(
    # a triangle
    domain 3
    relation E/2 { (0 1) (1 2) (2 0) }
  )");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(s->domain_size(), 3u);
  EXPECT_EQ(s->relation(0).size(), 3u);
  EXPECT_TRUE(s->relation(0).Contains({2, 0}));
}

TEST(StructureIoTest, ParseWithConstantsAndMultipleRelations) {
  Result<Structure> s = ParseStructure(
      "domain 4\n"
      "relation E/2 { (0 1) }\n"
      "relation P/1 { (2) (3) }\n"
      "constant root = 0\n");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(s->signature().relation_count(), 2u);
  EXPECT_EQ(s->signature().constant_count(), 1u);
  EXPECT_EQ(*s->constant(0), 0u);
  EXPECT_TRUE(s->relation(1).Contains({3}));
}

TEST(StructureIoTest, CommasInTuples) {
  Result<Structure> s =
      ParseStructure("domain 3 relation R/3 { (0, 1, 2) (2,1,0) }");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(s->relation(0).size(), 2u);
}

TEST(StructureIoTest, EmptyRelationAndEmptyDomain) {
  Result<Structure> s = ParseStructure("domain 0 relation E/2 { }");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->domain_size(), 0u);
  EXPECT_TRUE(s->relation(0).empty());
}

TEST(StructureIoTest, ZeroAryRelation) {
  Result<Structure> s = ParseStructure("domain 2 relation flag/0 { () }");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_TRUE(s->relation(0).Contains({}));
}

TEST(StructureIoTest, Errors) {
  EXPECT_FALSE(ParseStructure("relation E/2 { }").ok());      // No domain.
  EXPECT_FALSE(ParseStructure("domain 2 relation E/2 { (0 1").ok());
  EXPECT_FALSE(ParseStructure("domain 2 relation E/2 { (0 5) }").ok());
  EXPECT_FALSE(ParseStructure("domain 2 relation E/2 { (0) }").ok());
  EXPECT_FALSE(ParseStructure("domain 2 constant c = 7").ok());
  EXPECT_FALSE(ParseStructure("domain 2 banana").ok());
  EXPECT_FALSE(
      ParseStructure("domain 2 relation E/2 {} relation E/2 {}").ok());
}

TEST(StructureIoTest, OversizedNumeralsAreParseErrors) {
  // Every numeral must fit an Element; the longest once escaped as
  // std::out_of_range.
  for (const std::string numeral : {"4294967296", "99999999999999999999999"}) {
    for (const std::string prefix :
         {"domain ", "domain 2 relation E/", "domain 2 relation E/2 { (0 ",
          "domain 2 constant c = "}) {
      Result<Structure> s = ParseStructure(prefix + numeral);
      ASSERT_FALSE(s.ok()) << prefix << numeral;
      EXPECT_EQ(s.status().code(), StatusCode::kParseError);
      EXPECT_NE(s.status().message().find("at offset " +
                                          std::to_string(prefix.size())),
                std::string::npos)
          << s.status().ToString();
    }
  }
}

TEST(StructureIoTest, RoundTripGenerators) {
  std::vector<Structure> panel;
  panel.push_back(MakeDirectedCycle(5));
  panel.push_back(MakeLinearOrder(4));
  panel.push_back(MakeFullBinaryTree(2));
  panel.push_back(MakeSet(3));
  for (const Structure& s : panel) {
    std::string text = SerializeStructure(s);
    Result<Structure> back = ParseStructure(text);
    ASSERT_TRUE(back.ok()) << text << "\n" << back.status().ToString();
    EXPECT_TRUE(*back == s) << text;
  }
}

TEST(StructureIoTest, RoundTripWithConstant) {
  auto sig = std::make_shared<Signature>();
  sig->AddRelation("E", 2).AddConstant("c");
  Structure s(sig, 3);
  s.AddTuple(0, {0, 2});
  s.SetConstant(0, 1);
  Result<Structure> back = ParseStructure(SerializeStructure(s));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(*back == s);
}

TEST(StructureIoTest, OrderRelationNameSerializes) {
  // "<" must survive serialization (ParseWord accepts it).
  Structure order = MakeLinearOrder(3);
  Result<Structure> back = ParseStructure(SerializeStructure(order));
  ASSERT_TRUE(back.ok()) << SerializeStructure(order);
  EXPECT_TRUE(*back == order);
}

// ---------------------------------------------------------------------------
// Binary structure format ("FMTKBIN1").

TEST(BinaryIoTest, RoundTripPanel) {
  std::vector<Structure> panel;
  panel.push_back(MakeDirectedCycle(5));
  panel.push_back(MakeLinearOrder(4));
  panel.push_back(MakeFullBinaryTree(3));
  panel.push_back(MakeSet(3));
  panel.push_back(MakeGrid(3, 2));
  panel.push_back(MakeEmptyGraph(0));
  for (const Structure& s : panel) {
    Result<Structure> back = ParseStructureBinary(SerializeStructureBinary(s));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(*back == s);
  }
}

TEST(BinaryIoTest, RoundTripRandomStructures) {
  // Property test: serialize/parse is the identity on random structures over
  // a mixed-arity signature with constants.
  auto sig = std::make_shared<Signature>();
  sig->AddRelation("E", 2).AddRelation("P", 1).AddRelation("T", 3).AddRelation(
      "flag", 0);
  sig->AddConstant("a").AddConstant("b");
  std::mt19937_64 rng(20260809);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng() % 9;
    Structure s = MakeRandomStructure(sig, n, 0.3, rng);
    Result<Structure> back = ParseStructureBinary(SerializeStructureBinary(s));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(*back == s) << s.ToString();
  }
}

TEST(BinaryIoTest, UninterpretedConstantSurvivesBinaryButNotText) {
  // The textual serializer can only write interpreted constants, so an
  // uninterpreted one falls out of the round-tripped signature. The binary
  // format records a presence byte per constant and is lossless.
  auto sig = std::make_shared<Signature>();
  sig->AddRelation("E", 2).AddConstant("c").AddConstant("d");
  Structure s(sig, 3);
  s.AddTuple(0, {0, 2});
  s.SetConstant(0, 1);  // "c" interpreted, "d" deliberately not.

  Result<Structure> text_back = ParseStructure(SerializeStructure(s));
  ASSERT_TRUE(text_back.ok());
  EXPECT_FALSE(*text_back == s);  // "d" was lost.

  Result<Structure> bin_back = ParseStructureBinary(SerializeStructureBinary(s));
  ASSERT_TRUE(bin_back.ok()) << bin_back.status().ToString();
  EXPECT_TRUE(*bin_back == s);
  EXPECT_FALSE(bin_back->constant(1).has_value());
}

TEST(BinaryIoTest, FileRoundTrip) {
  Structure s = MakeGrid(4, 3);
  const std::string path = ::testing::TempDir() + "/fmtk_bin_roundtrip.bin";
  ASSERT_TRUE(WriteStructureBinaryFile(s, path).ok());
  Result<Structure> back = ReadStructureBinaryFile(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(*back == s);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, TruncationAtEveryPrefixFailsCleanly) {
  // Chopping the byte stream anywhere must yield a structured error (FMTK201
  // truncation or FMTK202 bad magic), never a crash or a bogus structure.
  Structure s = MakeDirectedCycle(3);
  const std::string bytes = SerializeStructureBinary(s);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    DiagnosticSink sink;
    Result<Structure> back =
        ParseStructureBinary(std::string_view(bytes).substr(0, cut), &sink);
    EXPECT_FALSE(back.ok()) << "cut at " << cut << " of " << bytes.size();
    EXPECT_TRUE(Has(sink, DiagCode::kIoTruncatedInput) ||
                Has(sink, DiagCode::kIoMalformedRecord))
        << "cut at " << cut;
  }
}

TEST(BinaryIoTest, BadMagicReportsMalformed) {
  DiagnosticSink sink;
  EXPECT_FALSE(ParseStructureBinary("GARBAGE!rest", &sink).ok());
  EXPECT_TRUE(Has(sink, DiagCode::kIoMalformedRecord));
}

TEST(BinaryIoTest, OutOfRangeElementReportsDiagnostic) {
  Structure s = MakeDirectedPath(2);  // Domain 2, one edge (0, 1).
  std::string bytes = SerializeStructureBinary(s);
  // Layout ends with: ... u32 e0, u32 e1, u32 constant_count. Corrupt the
  // second element (little-endian low byte) to 9 > domain 2.
  ASSERT_GE(bytes.size(), 12u);
  bytes[bytes.size() - 8] = 9;
  DiagnosticSink sink;
  EXPECT_FALSE(ParseStructureBinary(bytes, &sink).ok());
  EXPECT_TRUE(Has(sink, DiagCode::kIoElementOutOfRange)) << sink.ToText();
}

TEST(BinaryIoTest, TrailingBytesRejected) {
  std::string bytes = SerializeStructureBinary(MakeDirectedCycle(3));
  bytes += "x";
  DiagnosticSink sink;
  EXPECT_FALSE(ParseStructureBinary(bytes, &sink).ok());
  EXPECT_TRUE(Has(sink, DiagCode::kIoMalformedRecord));
}

// ---------------------------------------------------------------------------
// Edge-list loader failure paths.

TEST(EdgeListLoaderTest, TruncatedRecordReportsDiagnostic) {
  // A dangling source vertex with no target, both mid-file and at EOF.
  for (const char* text : {"0 1\n2\n3 4\n", "0 1\n2"}) {
    DiagnosticSink sink;
    Result<LoadedGraph> g = LoadEdgeListText(text, {}, &sink);
    EXPECT_FALSE(g.ok()) << text;
    EXPECT_TRUE(Has(sink, DiagCode::kIoTruncatedInput)) << text;
  }
}

TEST(EdgeListLoaderTest, MalformedRecordsReportDiagnostic) {
  EdgeListOptions numeric;
  numeric.id_mode = EdgeListOptions::IdMode::kNumeric;
  // Three fields, a non-numeric token, and a value beyond 32 bits.
  for (const char* text : {"0 1 2\n", "0 x\n", "0 99999999999\n"}) {
    DiagnosticSink sink;
    Result<LoadedGraph> g = LoadEdgeListText(text, numeric, &sink);
    EXPECT_FALSE(g.ok()) << text;
    EXPECT_TRUE(Has(sink, DiagCode::kIoMalformedRecord)) << text;
  }
}

TEST(EdgeListLoaderTest, OutOfRangeIdReportsDiagnostic) {
  EdgeListOptions numeric;
  numeric.id_mode = EdgeListOptions::IdMode::kNumeric;
  numeric.domain_size = 4;
  DiagnosticSink sink;
  Result<LoadedGraph> g = LoadEdgeListText("0 1\n2 7\n", numeric, &sink);
  EXPECT_FALSE(g.ok());
  EXPECT_TRUE(Has(sink, DiagCode::kIoElementOutOfRange));
}

TEST(EdgeListLoaderTest, DuplicateEdgesLoadWithWarning) {
  DiagnosticSink sink;
  Result<LoadedGraph> g =
      LoadEdgeListText("a b\nb c\na b\n", {}, &sink);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_TRUE(Has(sink, DiagCode::kIoDuplicateTuple));
  EXPECT_FALSE(sink.has_errors());
  EXPECT_EQ(g->stats.records, 3u);
  EXPECT_EQ(g->stats.edges, 2u);
  EXPECT_EQ(g->stats.duplicates, 1u);
}

TEST(EdgeListLoaderTest, EmptyRelationLoadsWithWarning) {
  DiagnosticSink sink;
  Result<LoadedGraph> g =
      LoadEdgeListText("# comments only\n\n% more\n", {}, &sink);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_TRUE(Has(sink, DiagCode::kIoEmptyRelation));
  EXPECT_FALSE(sink.has_errors());
  EXPECT_EQ(g->structure.relation(0).size(), 0u);
}

TEST(EdgeListLoaderTest, MissingFileFails) {
  EXPECT_FALSE(LoadEdgeListFile("/nonexistent/fmtk_no_such_file.txt").ok());
}

TEST(EdgeListLoaderTest, TruncatedFileOnDiskReportsDiagnostic) {
  const std::string path = ::testing::TempDir() + "/fmtk_truncated_edges.txt";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("0 1\n1 2\n3", f);  // Dangling final record, no newline.
  std::fclose(f);
  DiagnosticSink sink;
  EXPECT_FALSE(LoadEdgeListFile(path, {}, &sink).ok());
  EXPECT_TRUE(Has(sink, DiagCode::kIoTruncatedInput));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fmtk
