// fmtk_cli — a small command-line front end for the toolkit.
//
//   fmtk_cli [options] check <structure-file> "<sentence>"
//   fmtk_cli [options] query <structure-file> "<formula>" <var,var,...>
//   fmtk_cli game <structure-file-A> <structure-file-B> <rounds>
//   fmtk_cli distinguish <structure-file-A> <structure-file-B> <max-rank>
//   fmtk_cli [options] datalog <structure-file> "<program>"
//
// check / query / datalog go through the meta-planner (EvaluateAuto): the
// cost model routes each input to the estimated-fastest engine and the
// compiled plan is cached for repeat invocations within one process.
//
// Options:
//   --engine <name>   bypass the cost model and force one engine: naive,
//                     compiled, parallel, relational, datalog,
//                     bounded-degree
//   --explain         print the routing decision (chosen engine, the
//                     survey theorem backing it, and the per-engine cost
//                     table) before the answer
//
// Structure files use the structures/io.h format (see the header or
// `examples/` docs). Formulas use the logic/parser.h surface syntax.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/string_util.h"
#include "core/games/ef_game.h"
#include "core/games/hintikka.h"
#include "core/types/rank_type.h"
#include "logic/parser.h"
#include "planner/planner.h"
#include "structures/io.h"

namespace {

using fmtk::PlanExplanation;
using fmtk::PlannerOptions;
using fmtk::Result;
using fmtk::Status;
using fmtk::Structure;

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::InvalidArgument("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Result<Structure> LoadStructure(const std::string& path) {
  FMTK_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return fmtk::ParseStructure(text);
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

struct CliOptions {
  PlannerOptions planner;
  bool explain = false;
};

void MaybeExplain(const CliOptions& options, const PlanExplanation& explain) {
  if (options.explain) {
    std::printf("%s\n", explain.ToString().c_str());
  }
}

int RunCheck(const std::string& file, const std::string& formula_text,
             const CliOptions& options) {
  Result<Structure> s = LoadStructure(file);
  if (!s.ok()) {
    return Fail(s.status());
  }
  PlanExplanation explain;
  Result<bool> verdict =
      fmtk::EvaluateAuto(*s, formula_text, options.planner, &explain);
  if (!verdict.ok()) {
    return Fail(verdict.status());
  }
  MaybeExplain(options, explain);
  std::printf("%s\n", *verdict ? "true" : "false");
  return *verdict ? 0 : 2;
}

int RunQuery(const std::string& file, const std::string& formula_text,
             const std::string& vars_csv, const CliOptions& options) {
  Result<Structure> s = LoadStructure(file);
  if (!s.ok()) {
    return Fail(s.status());
  }
  std::vector<std::string> vars;
  for (const std::string& v : fmtk::Split(vars_csv, ',')) {
    std::string stripped(fmtk::StripWhitespace(v));
    if (!stripped.empty()) {
      vars.push_back(stripped);
    }
  }
  PlanExplanation explain;
  Result<fmtk::Relation> answers = fmtk::EvaluateQueryAuto(
      *s, formula_text, vars, options.planner, &explain);
  if (!answers.ok()) {
    return Fail(answers.status());
  }
  MaybeExplain(options, explain);
  std::printf("%zu answers: %s\n", answers->size(),
              answers->ToString().c_str());
  return 0;
}

// The two structures a game or a distinguishing sentence compares; they
// must share a signature.
Result<std::pair<Structure, Structure>> LoadPair(const std::string& file_a,
                                                 const std::string& file_b) {
  FMTK_ASSIGN_OR_RETURN(Structure a, LoadStructure(file_a));
  FMTK_ASSIGN_OR_RETURN(Structure b, LoadStructure(file_b));
  if (!(a.signature() == b.signature())) {
    return Status::SignatureMismatch(file_a + " and " + file_b +
                                     " have different signatures");
  }
  return std::make_pair(std::move(a), std::move(b));
}

// A round count or rank from the command line.
Result<std::size_t> ParseCount(const std::string& text, const char* what) {
  const std::optional<std::uint64_t> value =
      fmtk::ParseDecimal(text, std::numeric_limits<std::uint32_t>::max());
  if (!value.has_value()) {
    return Status::InvalidArgument(
        std::string(what) + " must be a decimal number of at most "
        "4294967295, got '" + text + "'");
  }
  return static_cast<std::size_t>(*value);
}

int RunGame(const std::string& file_a, const std::string& file_b,
            const std::string& rounds_text) {
  Result<std::pair<Structure, Structure>> pair = LoadPair(file_a, file_b);
  if (!pair.ok()) {
    return Fail(pair.status());
  }
  Result<std::size_t> rounds = ParseCount(rounds_text, "rounds");
  if (!rounds.ok()) {
    return Fail(rounds.status());
  }
  const auto& [a, b] = *pair;
  fmtk::EfGameSolver solver(a, b);
  Result<bool> wins = solver.DuplicatorWins(*rounds);
  if (!wins.ok()) {
    return Fail(wins.status());
  }
  std::printf("%zu-round EF game: duplicator %s (%llu positions explored)\n",
              *rounds, *wins ? "wins" : "loses",
              static_cast<unsigned long long>(solver.nodes_explored()));
  return 0;
}

int RunDistinguish(const std::string& file_a, const std::string& file_b,
                   const std::string& rank_text) {
  Result<std::pair<Structure, Structure>> pair = LoadPair(file_a, file_b);
  if (!pair.ok()) {
    return Fail(pair.status());
  }
  Result<std::size_t> max_rank = ParseCount(rank_text, "max-rank");
  if (!max_rank.ok()) {
    return Fail(max_rank.status());
  }
  const auto& [a, b] = *pair;
  fmtk::RankTypeIndex index;
  for (std::size_t rank = 0; rank <= *max_rank; ++rank) {
    Result<std::optional<fmtk::Formula>> f =
        fmtk::DistinguishingSentence(a, b, rank, index);
    if (!f.ok()) {
      return Fail(f.status());
    }
    if (f->has_value()) {
      std::printf("distinguishable at rank %zu:\n%s\n", rank,
                  (*f)->ToString().c_str());
      return 0;
    }
  }
  std::printf("equivalent up to rank %zu\n", *max_rank);
  return 0;
}

int RunDatalog(const std::string& file, const std::string& program_text,
               const CliOptions& options) {
  Result<Structure> s = LoadStructure(file);
  if (!s.ok()) {
    return Fail(s.status());
  }
  fmtk::DatalogStats stats;
  fmtk::DatalogPlanExplanation explain;
  Result<std::map<std::string, fmtk::Relation>> idb =
      fmtk::EvaluateDatalogAuto(*s, program_text, options.planner, &stats,
                                &explain);
  if (!idb.ok()) {
    return Fail(idb.status());
  }
  if (options.explain) {
    std::printf("%s\n", explain.ToString().c_str());
  }
  for (const auto& [name, relation] : *idb) {
    std::printf("%s (%zu tuples): %s\n", name.c_str(), relation.size(),
                relation.ToString().c_str());
  }
  std::printf("(%zu fixpoint rounds)\n", stats.iterations);
  return 0;
}

void Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  fmtk_cli [options] check <structure-file> \"<sentence>\"\n"
      "  fmtk_cli [options] query <structure-file> \"<formula>\" "
      "<var,var,...>\n"
      "  fmtk_cli game <file-A> <file-B> <rounds>\n"
      "  fmtk_cli distinguish <file-A> <file-B> <max-rank>\n"
      "  fmtk_cli [options] datalog <structure-file> \"<program>\"\n"
      "options:\n"
      "  --engine <naive|compiled|parallel|relational|datalog|"
      "bounded-degree>\n"
      "  --explain\n");
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--explain") {
      options.explain = true;
    } else if (arg == "--engine" && i + 1 < argc) {
      const std::string name = argv[++i];
      options.planner.force_engine = fmtk::ParseEngineKind(name);
      if (!options.planner.force_engine.has_value()) {
        std::fprintf(stderr, "error: unknown engine '%s'\n", name.c_str());
        return 1;
      }
    } else if (!arg.empty() && arg.rfind("--", 0) == 0) {
      Usage();
      return 1;
    } else {
      args.push_back(arg);
    }
  }
  if (args.empty()) {
    Usage();
    return 1;
  }
  const std::string& command = args[0];
  if (command == "check" && args.size() == 3) {
    return RunCheck(args[1], args[2], options);
  }
  if (command == "query" && args.size() == 4) {
    return RunQuery(args[1], args[2], args[3], options);
  }
  if (command == "game" && args.size() == 4) {
    return RunGame(args[1], args[2], args[3]);
  }
  if (command == "distinguish" && args.size() == 4) {
    return RunDistinguish(args[1], args[2], args[3]);
  }
  if (command == "datalog" && args.size() == 3) {
    return RunDatalog(args[1], args[2], options);
  }
  Usage();
  return 1;
}
