// fmtk_lint — the static query analyzer as a command-line linter.
//
//   fmtk_lint [options] <file>...
//   fmtk_lint [options] -e "<formula or program>"
//
// Each input is an FO formula (logic/parser.h surface syntax) or a Datalog
// program (datalog/program.h syntax; detected by ':-' or forced with
// --datalog). Diagnostics carry stable FMTK### codes: FMTK0xx for formulas,
// FMTK1xx for programs (see DESIGN.md for the full table).
//
// Options:
//   --datalog            treat inputs as Datalog programs
//   --formula            treat inputs as FO formulas (overrides detection)
//   --structure <file>   check vocabulary against this structure's signature
//   --signature "<sig>"  inline signature, e.g. "E/2,P/1;c,d"
//   --query              FO: enforce safe-range (query profile; FMTK010/011
//                        become errors). Default: model-check profile.
//   --output <p[,q]>     Datalog: output predicates for reachability
//                        analysis (FMTK106) — the same roots the program
//                        optimizer's dead-rule elimination and magic-set
//                        pass rewrite against
//   --optimize           Datalog: run the static program optimizer
//                        (analysis/program_optimizer.h) and print the
//                        rewritten program with per-rewrite provenance;
//                        with --json the report gains an "optimize" object
//                        (rewrites, boundedness, strata, magic/FO flags,
//                        rewritten program text)
//   --json               print one JSON object per input: the diagnostics
//                        array plus the meta-planner's routing measures
//                        (qr, width, node count, safe-range), the stratum
//                        schedule for Datalog programs, and — when
//                        --structure was given — the structure statistics
//                        (Gaifman degree, components, diameter bound) the
//                        EvaluateAuto cost model consumes
//   -e "<text>"          lint the argument instead of a file
//
// Exit status: 0 when every input is error-clean (warnings and notes are
// fine), 1 when any diagnostic of severity error was reported, 2 on usage,
// I/O or parse failures.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/datalog_analyzer.h"
#include "analysis/diagnostics.h"
#include "analysis/fo_analyzer.h"
#include "analysis/program_optimizer.h"
#include "base/json_out.h"
#include "base/string_util.h"
#include "datalog/program.h"
#include "logic/parser.h"
#include "structures/io.h"
#include "structures/signature.h"
#include "structures/structure.h"
#include "structures/structure_stats.h"

namespace {

using fmtk::DatalogAnalysis;
using fmtk::FoAnalysis;
using fmtk::Result;
using fmtk::Signature;
using fmtk::Status;

struct LintOptions {
  enum class Mode { kAuto, kFormula, kDatalog };
  Mode mode = Mode::kAuto;
  bool query_profile = false;
  bool json = false;
  bool optimize = false;
  std::shared_ptr<const Signature> signature;  // null = skip vocab checks
  /// Set by --structure: its stats ride along in the --json report.
  std::shared_ptr<const fmtk::Structure> structure;
  std::vector<std::string> outputs;
};

// base/json_out.h: the shared escaper handles control characters and
// invalid UTF-8 bytes, which the seed's ad-hoc escaper passed through raw
// (a "\x01" in a file name made --json emit invalid JSON).
std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  fmtk::JsonAppendEscaped(out, text);
  return out;
}

// The analyzer measures the meta-planner's cost model routes on
// (src/planner/planner.cc Route()), as one JSON object.
std::string MeasuresJson(const FoAnalysis& analysis) {
  std::ostringstream out;
  out << "{\"quantifier_rank\":" << analysis.quantifier_rank
      << ",\"quantifier_count\":" << analysis.quantifier_count
      << ",\"variable_width\":" << analysis.variable_width
      << ",\"node_count\":" << analysis.node_count
      << ",\"free_variable_count\":" << analysis.free_variables.size()
      << ",\"safe_range\":" << (analysis.safe_range ? "true" : "false")
      << "}";
  return out.str();
}

std::string JsonStringArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += "\"" + JsonEscape(items[i]) + "\"";
  }
  return out + "]";
}

std::string StructureStatsJson(const fmtk::StructureStats& stats) {
  std::ostringstream out;
  out << "{\"domain_size\":" << stats.domain_size
      << ",\"tuple_count\":" << stats.tuple_count
      << ",\"relation_count\":" << stats.relation_count
      << ",\"max_relation_size\":" << stats.max_relation_size
      << ",\"gaifman_edge_count\":" << stats.gaifman_edge_count
      << ",\"max_degree\":" << stats.max_degree << ",\"avg_degree\":"
      << stats.avg_degree << ",\"component_count\":" << stats.component_count
      << ",\"diameter_bound\":" << stats.diameter_bound << "}";
  return out.str();
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::InvalidArgument("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// "E/2,P/1;c,d" -> Signature. The part after ';' (optional) lists constants.
Result<std::shared_ptr<const Signature>> ParseInlineSignature(
    const std::string& text) {
  auto signature = std::make_shared<Signature>();
  const std::size_t semi = text.find(';');
  const std::string relations = text.substr(0, semi);
  for (const std::string& part : fmtk::Split(relations, ',')) {
    const std::string entry(fmtk::StripWhitespace(part));
    if (entry.empty()) {
      continue;
    }
    const std::size_t slash = entry.find('/');
    if (slash == std::string::npos) {
      return Status::InvalidArgument("signature entry '" + entry +
                                     "' is not of the form name/arity");
    }
    const std::string name = entry.substr(0, slash);
    if (signature->FindRelation(name).has_value()) {
      return Status::InvalidArgument("duplicate relation '" + name +
                                     "' in signature");
    }
    const std::optional<std::uint64_t> arity = fmtk::ParseDecimal(
        entry.substr(slash + 1), std::numeric_limits<std::uint32_t>::max());
    if (!arity.has_value()) {
      return Status::InvalidArgument("bad arity in signature entry '" +
                                     entry + "'");
    }
    signature->AddRelation(name, static_cast<std::size_t>(*arity));
  }
  if (semi != std::string::npos) {
    for (const std::string& part :
         fmtk::Split(text.substr(semi + 1), ',')) {
      const std::string name(fmtk::StripWhitespace(part));
      if (!name.empty() && !signature->FindConstant(name).has_value()) {
        signature->AddConstant(name);
      }
    }
  }
  return std::shared_ptr<const Signature>(std::move(signature));
}

bool LooksLikeDatalog(const std::string& text) {
  return text.find(":-") != std::string::npos;
}

// `extra_json` is either empty or ",\"key\":value,..." to splice into the
// JSON object after the diagnostics array.
void PrintReport(const std::string& label, const std::string& kind,
                 const fmtk::DiagnosticSink& diagnostics,
                 const std::string& source, bool json,
                 const std::vector<std::string>& summary,
                 const std::string& extra_json = "") {
  if (json) {
    std::printf("{\"input\":\"%s\",\"kind\":\"%s\",\"diagnostics\":%s%s}\n",
                JsonEscape(label).c_str(), kind.c_str(),
                diagnostics.ToJson().c_str(), extra_json.c_str());
    return;
  }
  if (!diagnostics.empty()) {
    std::printf("%s", diagnostics.ToText(source).c_str());
  }
  std::printf("%s: %zu error(s), %zu warning(s)", label.c_str(),
              diagnostics.error_count(), diagnostics.warning_count());
  for (const std::string& line : summary) {
    std::printf("; %s", line.c_str());
  }
  std::printf("\n");
}

// Returns 0/1/2 like the tool's exit status.
int LintFormula(const std::string& label, const std::string& text,
                const LintOptions& options) {
  Result<fmtk::ParsedFormula> parsed =
      fmtk::ParseFormulaWithSpans(text, options.signature.get());
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: %s\n", label.c_str(),
                 parsed.status().ToString().c_str());
    return 2;
  }
  fmtk::FoAnalyzerOptions analyzer_options;
  analyzer_options.signature = options.signature.get();
  analyzer_options.spans = &parsed->spans;
  analyzer_options.profile = options.query_profile
                                 ? fmtk::FoProfile::kQuery
                                 : fmtk::FoProfile::kModelCheck;
  const FoAnalysis analysis =
      fmtk::AnalyzeFormula(parsed->formula, analyzer_options);
  std::vector<std::string> summary;
  summary.push_back(
      "qr=" + std::to_string(analysis.quantifier_rank) +
      " width=" + std::to_string(analysis.variable_width) +
      " free=" + std::to_string(analysis.free_variables.size()));
  summary.push_back(analysis.safe_range ? "safe-range" : "not safe-range");
  std::string extra = ",\"measures\":" + MeasuresJson(analysis);
  if (options.structure != nullptr) {
    extra += ",\"structure_stats\":" +
             StructureStatsJson(options.structure->Stats());
  }
  PrintReport(label, "formula", analysis.diagnostics, text, options.json,
              summary, extra);
  return analysis.ok() ? 0 : 1;
}

int LintDatalog(const std::string& label, const std::string& text,
                const LintOptions& options) {
  Result<fmtk::DatalogProgram> program =
      fmtk::ParseDatalogProgram(text, /*validate=*/false);
  if (!program.ok()) {
    std::fprintf(stderr, "%s: %s\n", label.c_str(),
                 program.status().ToString().c_str());
    return 2;
  }
  fmtk::DatalogAnalyzerOptions analyzer_options;
  analyzer_options.signature = options.signature.get();
  analyzer_options.outputs = options.outputs;
  const DatalogAnalysis analysis =
      fmtk::AnalyzeProgram(*program, analyzer_options);
  std::vector<std::string> summary = analysis.RecursionSummary();
  std::string extra = ",\"strata\":" + JsonStringArray(analysis.StratumSummary());
  if (options.structure != nullptr) {
    extra += ",\"structure_stats\":" +
             StructureStatsJson(options.structure->Stats());
  }

  // --optimize: run the static rewrites with the same --output roots
  // FMTK106 uses, so lint and optimizer agree about liveness.
  std::optional<fmtk::OptimizedDatalogProgram> optimized;
  if (options.optimize && analysis.ok()) {
    fmtk::DatalogOptimizerOptions optimizer_options;
    optimizer_options.signature = options.signature.get();
    optimizer_options.outputs = options.outputs;
    Result<fmtk::OptimizedDatalogProgram> result =
        fmtk::OptimizeDatalogProgram(*program, optimizer_options);
    if (!result.ok()) {
      std::fprintf(stderr, "%s: %s\n", label.c_str(),
                   result.status().ToString().c_str());
      return 2;
    }
    optimized = *std::move(result);
    if (options.json) {
      extra += ",\"optimize\":{\"rewrites\":" +
               JsonStringArray(optimized->RewriteSummary()) +
               ",\"boundedness\":" +
               JsonStringArray(optimized->BoundednessSummary()) +
               ",\"strata\":" +
               JsonStringArray(optimized->analysis.StratumSummary()) +
               ",\"magic_applied\":" +
               (optimized->magic_applied ? "true" : "false") +
               ",\"fo_expressible\":" +
               (optimized->fo_expressible ? "true" : "false") +
               ",\"program\":\"" + JsonEscape(optimized->program.ToString()) +
               "\"}";
    }
  }

  PrintReport(label, "datalog", analysis.diagnostics, text, options.json,
              summary, extra);
  if (optimized.has_value() && !options.json) {
    for (const fmtk::DatalogRewrite& rewrite : optimized->rewrites) {
      std::printf("rewrite: %s\n", rewrite.ToString().c_str());
    }
    for (const fmtk::BoundednessVerdict& verdict : optimized->boundedness) {
      std::printf("boundedness: %s\n", verdict.ToString().c_str());
    }
    std::printf("optimized program (%zu rule(s)):\n%s",
                optimized->program.rules().size(),
                optimized->program.ToString().c_str());
  }
  return analysis.ok() ? 0 : 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: fmtk_lint [--datalog|--formula] [--structure <file>]\n"
      "                 [--signature \"E/2,P/1;c\"] [--query]\n"
      "                 [--output p[,q]] [--optimize] [--json]\n"
      "                 (<file>... | -e <text>)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  LintOptions options;
  std::vector<std::pair<std::string, std::string>> inputs;  // label, text
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--datalog") {
      options.mode = LintOptions::Mode::kDatalog;
    } else if (arg == "--formula") {
      options.mode = LintOptions::Mode::kFormula;
    } else if (arg == "--query") {
      options.query_profile = true;
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--optimize") {
      options.optimize = true;
    } else if (arg == "--structure" && i + 1 < argc) {
      Result<std::string> text = ReadFile(argv[++i]);
      if (!text.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     text.status().ToString().c_str());
        return 2;
      }
      Result<fmtk::Structure> parsed = fmtk::ParseStructure(*text);
      if (!parsed.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     parsed.status().ToString().c_str());
        return 2;
      }
      options.signature =
          std::make_shared<Signature>(parsed->signature());
      options.structure =
          std::make_shared<const fmtk::Structure>(*std::move(parsed));
    } else if (arg == "--signature" && i + 1 < argc) {
      Result<std::shared_ptr<const Signature>> parsed =
          ParseInlineSignature(argv[++i]);
      if (!parsed.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     parsed.status().ToString().c_str());
        return 2;
      }
      options.signature = *parsed;
    } else if (arg == "--output" && i + 1 < argc) {
      for (const std::string& p : fmtk::Split(argv[++i], ',')) {
        const std::string name(fmtk::StripWhitespace(p));
        if (!name.empty()) {
          options.outputs.push_back(name);
        }
      }
    } else if (arg == "-e" && i + 1 < argc) {
      inputs.emplace_back("<arg>", argv[++i]);
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else {
      files.push_back(arg);
    }
  }
  for (const std::string& file : files) {
    Result<std::string> text = ReadFile(file);
    if (!text.ok()) {
      std::fprintf(stderr, "error: %s\n", text.status().ToString().c_str());
      return 2;
    }
    inputs.emplace_back(file, *text);
  }
  if (inputs.empty()) {
    return Usage();
  }
  int exit_code = 0;
  for (const auto& [label, text] : inputs) {
    const bool datalog =
        options.mode == LintOptions::Mode::kDatalog ||
        (options.mode == LintOptions::Mode::kAuto && LooksLikeDatalog(text));
    const int code = datalog ? LintDatalog(label, text, options)
                             : LintFormula(label, text, options);
    if (code > exit_code) {
      exit_code = code;
    }
  }
  return exit_code;
}
