#include "structures/bulk_load.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "base/check.h"
#include "base/interner.h"
#include "structures/relation_builder.h"
#include "structures/signature.h"

namespace fmtk {

namespace {

constexpr std::size_t kChunkBytes = std::size_t{1} << 20;
constexpr char kBinaryMagic[8] = {'F', 'M', 'T', 'K', 'B', 'I', 'N', '1'};

Status Fail(DiagnosticSink* sink, DiagCode code, SourceSpan span,
            std::string message) {
  if (sink != nullptr) {
    sink->Report(code, span, message);
  }
  // The Status carries the FMTK id too, so sink-less callers still see a
  // structured failure, with the code's canonical status code.
  return Status(GetDiagCodeInfo(code).status_code,
                std::string(DiagCodeId(code)) + ": " + std::move(message));
}

void Warn(DiagnosticSink* sink, DiagCode code, std::string message) {
  if (sink != nullptr) {
    sink->Report(code, SourceSpan{}, std::move(message));
  }
}

bool IsSeparator(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == ',';
}

// Streaming edge-list scanner: fed chunk by chunk, carries a partial token
// across chunk boundaries, and hands completed (source, target) rows to the
// RelationBuilder. One pass, no line splitting, no per-line allocation.
class EdgeListLoader {
 public:
  EdgeListLoader(const EdgeListOptions& options, DiagnosticSink* sink)
      : options_(options), sink_(sink), builder_(2) {}

  Status Feed(const char* data, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i, ++offset_) {
      const char c = data[i];
      if (c == '\n') {
        FMTK_RETURN_IF_ERROR(EndToken());
        FMTK_RETURN_IF_ERROR(EndRecord());
        in_comment_ = false;
        continue;
      }
      if (in_comment_) {
        continue;
      }
      if (c == '#' || c == '%') {
        FMTK_RETURN_IF_ERROR(EndToken());
        in_comment_ = true;
        continue;
      }
      if (IsSeparator(c)) {
        FMTK_RETURN_IF_ERROR(EndToken());
        continue;
      }
      if (token_.empty()) {
        token_start_ = offset_;
      }
      token_.push_back(c);
    }
    return Status::OK();
  }

  Result<LoadedGraph> Finish() {
    // EOF closes the last record like a newline would.
    FMTK_RETURN_IF_ERROR(EndToken());
    FMTK_RETURN_IF_ERROR(EndRecord());

    Relation rel = builder_.Build();
    BulkLoadStats stats;
    stats.records = records_;
    stats.edges = rel.size();
    stats.duplicates = builder_.DuplicatesDropped();
    stats.bytes = offset_;
    if (stats.duplicates > 0 && !options_.undirected) {
      Warn(sink_, DiagCode::kIoDuplicateTuple,
           std::to_string(stats.duplicates) + " duplicate edge(s) collapsed");
    }
    if (rel.empty()) {
      Warn(sink_, DiagCode::kIoEmptyRelation,
           "relation " + options_.relation_name +
               " loaded empty (no data lines in the input)");
    }
    std::size_t domain = 0;
    if (options_.id_mode == EdgeListOptions::IdMode::kIntern) {
      domain = interner_.size();
    } else if (options_.domain_size > 0) {
      domain = options_.domain_size;
    } else if (records_ > 0) {
      domain = static_cast<std::size_t>(max_id_) + 1;
    }
    auto signature = std::make_shared<Signature>();
    signature->AddRelation(options_.relation_name, 2);
    Structure structure(std::move(signature), domain);
    structure.SetRelation(0, std::move(rel));
    LoadedGraph out{std::move(structure), {}, stats};
    if (options_.id_mode == EdgeListOptions::IdMode::kIntern) {
      out.ids = interner_.Names();
    }
    return out;
  }

 private:
  Status EndToken() {
    if (token_.empty()) {
      return Status::OK();
    }
    const SourceSpan span = SourceSpan::Of(token_start_, token_.size());
    if (tokens_in_record_ >= 2) {
      return Fail(sink_, DiagCode::kIoMalformedRecord, span,
                  "edge line has more than two vertex tokens ('" + token_ +
                      "' is extra)");
    }
    Element e = 0;
    if (options_.id_mode == EdgeListOptions::IdMode::kIntern) {
      e = interner_.Intern(token_);
    } else {
      std::uint64_t v = 0;
      for (const char c : token_) {
        if (c < '0' || c > '9') {
          return Fail(sink_, DiagCode::kIoMalformedRecord, span,
                      "vertex id '" + token_ + "' is not a number");
        }
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
        if (v > 0xffffffffULL) {
          return Fail(sink_, DiagCode::kIoMalformedRecord, span,
                      "vertex id '" + token_ + "' does not fit an element");
        }
      }
      if (options_.domain_size > 0 && v >= options_.domain_size) {
        return Fail(sink_, DiagCode::kIoElementOutOfRange, span,
                    "vertex id " + token_ + " outside the declared domain of " +
                        std::to_string(options_.domain_size));
      }
      e = static_cast<Element>(v);
      max_id_ = std::max(max_id_, e);
    }
    record_[tokens_in_record_++] = e;
    token_.clear();
    return Status::OK();
  }

  Status EndRecord() {
    if (tokens_in_record_ == 0) {
      return Status::OK();  // Blank or comment-only line.
    }
    if (tokens_in_record_ == 1) {
      return Fail(sink_, DiagCode::kIoTruncatedInput,
                  SourceSpan::Of(token_start_, 1),
                  "edge line ends after the source vertex (no target)");
    }
    ++records_;
    builder_.Add(record_);
    if (options_.undirected) {
      const Element reversed[2] = {record_[1], record_[0]};
      builder_.Add(reversed);
    }
    tokens_in_record_ = 0;
    return Status::OK();
  }

  const EdgeListOptions& options_;
  DiagnosticSink* sink_;
  RelationBuilder builder_;
  StringInterner interner_;
  std::string token_;
  std::size_t token_start_ = 0;
  std::size_t offset_ = 0;
  Element record_[2] = {0, 0};
  std::size_t tokens_in_record_ = 0;
  bool in_comment_ = false;
  std::size_t records_ = 0;
  Element max_id_ = 0;
};

// ---- Binary format helpers -------------------------------------------------

void PutU32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

void PutU64(std::string& out, std::uint64_t v) {
  PutU32(out, static_cast<std::uint32_t>(v & 0xffffffffULL));
  PutU32(out, static_cast<std::uint32_t>(v >> 32));
}

// Bounds-checked little-endian reader over the input bytes; every overrun
// funnels into one FMTK201 site.
class ByteReader {
 public:
  ByteReader(std::string_view bytes, DiagnosticSink* sink)
      : bytes_(bytes), sink_(sink) {}

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }

  Status ReadBytes(std::size_t n, std::string_view* out,
                   std::string_view what) {
    if (remaining() < n) {
      return Truncated(what);
    }
    *out = bytes_.substr(pos_, n);
    pos_ += n;
    return Status::OK();
  }

  Status ReadU32(std::uint32_t* out, std::string_view what) {
    std::string_view raw;
    FMTK_RETURN_IF_ERROR(ReadBytes(4, &raw, what));
    *out = DecodeU32(raw.data());
    return Status::OK();
  }

  Status ReadU64(std::uint64_t* out, std::string_view what) {
    std::string_view raw;
    FMTK_RETURN_IF_ERROR(ReadBytes(8, &raw, what));
    *out = static_cast<std::uint64_t>(DecodeU32(raw.data())) |
           (static_cast<std::uint64_t>(DecodeU32(raw.data() + 4)) << 32);
    return Status::OK();
  }

  Status Truncated(std::string_view what) {
    return Fail(sink_, DiagCode::kIoTruncatedInput, SourceSpan::Of(pos_, 1),
                "binary structure input ends inside " + std::string(what) +
                    " (offset " + std::to_string(pos_) + " of " +
                    std::to_string(bytes_.size()) + ")");
  }

  static std::uint32_t DecodeU32(const char* p) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(p[1]))
            << 8) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(p[2]))
            << 16) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(p[3]))
            << 24);
  }

 private:
  std::string_view bytes_;
  DiagnosticSink* sink_;
  std::size_t pos_ = 0;
};

constexpr std::uint32_t kMaxNameBytes = 1 << 16;
constexpr std::uint32_t kMaxArity = 1 << 10;

}  // namespace

Result<LoadedGraph> LoadEdgeListText(std::string_view text,
                                     const EdgeListOptions& options,
                                     DiagnosticSink* sink) {
  EdgeListLoader loader(options, sink);
  // Feed in bounded chunks so the in-memory path exercises the same
  // boundary handling the file path does.
  for (std::size_t at = 0; at < text.size(); at += kChunkBytes) {
    FMTK_RETURN_IF_ERROR(
        loader.Feed(text.data() + at, std::min(kChunkBytes, text.size() - at)));
  }
  return loader.Finish();
}

Result<LoadedGraph> LoadEdgeListFile(const std::string& path,
                                     const EdgeListOptions& options,
                                     DiagnosticSink* sink) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (file == nullptr) {
    return Status::InvalidArgument("cannot open " + path);
  }
  EdgeListLoader loader(options, sink);
  std::vector<char> chunk(kChunkBytes);
  std::size_t n = 0;
  while ((n = std::fread(chunk.data(), 1, chunk.size(), file.get())) > 0) {
    FMTK_RETURN_IF_ERROR(loader.Feed(chunk.data(), n));
  }
  if (std::ferror(file.get()) != 0) {
    return Status::Internal("read error on " + path);
  }
  return loader.Finish();
}

std::string SerializeStructureBinary(const Structure& s) {
  std::string out(kBinaryMagic, sizeof(kBinaryMagic));
  PutU64(out, s.domain_size());
  PutU32(out, static_cast<std::uint32_t>(s.signature().relation_count()));
  for (std::size_t r = 0; r < s.signature().relation_count(); ++r) {
    const RelationSymbol& symbol = s.signature().relation(r);
    PutU32(out, static_cast<std::uint32_t>(symbol.name.size()));
    out += symbol.name;
    PutU32(out, static_cast<std::uint32_t>(symbol.arity));
    const Relation& rel = s.relation(r);
    PutU64(out, rel.size());
    for (std::size_t i = 0; i < rel.size(); ++i) {
      const Element* row = rel.TupleData(i);
      for (std::size_t c = 0; c < symbol.arity; ++c) {
        PutU32(out, row[c]);
      }
    }
  }
  PutU32(out, static_cast<std::uint32_t>(s.signature().constant_count()));
  for (std::size_t c = 0; c < s.signature().constant_count(); ++c) {
    const std::string& name = s.signature().constant_name(c);
    PutU32(out, static_cast<std::uint32_t>(name.size()));
    out += name;
    const std::optional<Element> value = s.constant(c);
    // The explicit presence byte is what the textual format cannot say:
    // an uninterpreted constant round-trips instead of degrading to a
    // comment.
    out.push_back(value.has_value() ? '\1' : '\0');
    if (value.has_value()) {
      PutU32(out, *value);
    }
  }
  return out;
}

Result<Structure> ParseStructureBinary(std::string_view bytes,
                                       DiagnosticSink* sink) {
  ByteReader in(bytes, sink);
  std::string_view magic;
  FMTK_RETURN_IF_ERROR(in.ReadBytes(sizeof(kBinaryMagic), &magic, "the magic"));
  if (std::memcmp(magic.data(), kBinaryMagic, sizeof(kBinaryMagic)) != 0) {
    return Fail(sink, DiagCode::kIoMalformedRecord, SourceSpan::Of(0, 8),
                "not a FMTKBIN1 binary structure (bad magic)");
  }
  std::uint64_t domain = 0;
  FMTK_RETURN_IF_ERROR(in.ReadU64(&domain, "the domain size"));

  auto signature = std::make_shared<Signature>();
  std::uint32_t relation_count = 0;
  FMTK_RETURN_IF_ERROR(in.ReadU32(&relation_count, "the relation count"));
  struct PendingRelation {
    std::size_t arity = 0;
    Relation rel{0};
    std::size_t duplicates = 0;
  };
  std::vector<PendingRelation> pending;
  pending.reserve(relation_count);
  for (std::uint32_t r = 0; r < relation_count; ++r) {
    std::uint32_t name_len = 0;
    FMTK_RETURN_IF_ERROR(in.ReadU32(&name_len, "a relation name length"));
    if (name_len == 0 || name_len > kMaxNameBytes) {
      return Fail(sink, DiagCode::kIoMalformedRecord,
                  SourceSpan::Of(in.pos() - 4, 4),
                  "implausible relation name length " +
                      std::to_string(name_len));
    }
    std::string_view name;
    FMTK_RETURN_IF_ERROR(in.ReadBytes(name_len, &name, "a relation name"));
    if (signature->FindRelation(name).has_value()) {
      return Fail(sink, DiagCode::kIoMalformedRecord,
                  SourceSpan::Of(in.pos() - name_len, name_len),
                  "duplicate relation " + std::string(name));
    }
    std::uint32_t arity = 0;
    FMTK_RETURN_IF_ERROR(in.ReadU32(&arity, "a relation arity"));
    if (arity > kMaxArity) {
      return Fail(sink, DiagCode::kIoMalformedRecord,
                  SourceSpan::Of(in.pos() - 4, 4),
                  "implausible arity " + std::to_string(arity) +
                      " for relation " + std::string(name));
    }
    std::uint64_t tuple_count = 0;
    FMTK_RETURN_IF_ERROR(in.ReadU64(&tuple_count, "a tuple count"));
    signature->AddRelation(std::string(name), arity);
    PendingRelation p;
    p.arity = arity;
    if (arity == 0) {
      if (tuple_count > 1) {
        return Fail(sink, DiagCode::kIoMalformedRecord,
                    SourceSpan::Of(in.pos() - 8, 8),
                    "arity-0 relation " + std::string(name) + " claims " +
                        std::to_string(tuple_count) + " tuples");
      }
      p.rel = Relation(0);
      if (tuple_count == 1) {
        p.rel.Add(Tuple{});
      }
      pending.push_back(std::move(p));
      continue;
    }
    const std::uint64_t row_bytes = std::uint64_t{4} * arity;
    if (tuple_count > in.remaining() / row_bytes) {
      return Fail(sink, DiagCode::kIoTruncatedInput,
                  SourceSpan::Of(in.pos(), 1),
                  "tuple block of relation " + std::string(name) + " claims " +
                      std::to_string(tuple_count) +
                      " tuples but the input has only " +
                      std::to_string(in.remaining()) + " bytes left");
    }
    std::string_view block;
    FMTK_RETURN_IF_ERROR(in.ReadBytes(
        static_cast<std::size_t>(tuple_count * row_bytes), &block,
        "a tuple block"));
    RelationBuilder builder(arity);
    std::vector<Element> row(arity);
    for (std::uint64_t i = 0; i < tuple_count; ++i) {
      const char* at = block.data() + i * row_bytes;
      for (std::uint32_t c = 0; c < arity; ++c) {
        const Element e = ByteReader::DecodeU32(at + std::size_t{4} * c);
        if (e >= domain) {
          return Fail(
              sink, DiagCode::kIoElementOutOfRange,
              SourceSpan::Of(in.pos() - block.size() +
                                 static_cast<std::size_t>(i * row_bytes),
                             static_cast<std::size_t>(row_bytes)),
              "element " + std::to_string(e) + " of relation " +
                  std::string(name) + " outside the domain of " +
                  std::to_string(domain));
        }
        row[c] = e;
      }
      builder.Add(row.data());
    }
    // Column indexes are built on first use: a loaded structure often
    // reaches engines that probe few of its columns, or none.
    p.rel = builder.Build(/*build_column_indexes=*/false);
    p.duplicates = builder.DuplicatesDropped();
    if (p.duplicates > 0) {
      Warn(sink, DiagCode::kIoDuplicateTuple,
           std::to_string(p.duplicates) + " duplicate tuple(s) in relation " +
               std::string(name) + " collapsed");
    }
    pending.push_back(std::move(p));
  }

  struct PendingConstant {
    bool has_value = false;
    Element value = 0;
  };
  std::uint32_t constant_count = 0;
  FMTK_RETURN_IF_ERROR(in.ReadU32(&constant_count, "the constant count"));
  std::vector<PendingConstant> constants;
  constants.reserve(constant_count);
  for (std::uint32_t c = 0; c < constant_count; ++c) {
    std::uint32_t name_len = 0;
    FMTK_RETURN_IF_ERROR(in.ReadU32(&name_len, "a constant name length"));
    if (name_len == 0 || name_len > kMaxNameBytes) {
      return Fail(sink, DiagCode::kIoMalformedRecord,
                  SourceSpan::Of(in.pos() - 4, 4),
                  "implausible constant name length " +
                      std::to_string(name_len));
    }
    std::string_view name;
    FMTK_RETURN_IF_ERROR(in.ReadBytes(name_len, &name, "a constant name"));
    if (signature->FindConstant(name).has_value()) {
      return Fail(sink, DiagCode::kIoMalformedRecord,
                  SourceSpan::Of(in.pos() - name_len, name_len),
                  "duplicate constant " + std::string(name));
    }
    signature->AddConstant(std::string(name));
    std::string_view presence;
    FMTK_RETURN_IF_ERROR(in.ReadBytes(1, &presence, "a presence byte"));
    PendingConstant pc;
    if (presence[0] != '\0' && presence[0] != '\1') {
      return Fail(sink, DiagCode::kIoMalformedRecord,
                  SourceSpan::Of(in.pos() - 1, 1),
                  "constant " + std::string(name) +
                      " has an invalid presence byte");
    }
    if (presence[0] == '\1') {
      std::uint32_t value = 0;
      FMTK_RETURN_IF_ERROR(in.ReadU32(&value, "a constant value"));
      if (value >= domain) {
        return Fail(sink, DiagCode::kIoElementOutOfRange,
                    SourceSpan::Of(in.pos() - 4, 4),
                    "constant " + std::string(name) + " = " +
                        std::to_string(value) + " outside the domain of " +
                        std::to_string(domain));
      }
      pc.has_value = true;
      pc.value = static_cast<Element>(value);
    }
    constants.push_back(pc);
  }
  if (in.remaining() != 0) {
    return Fail(sink, DiagCode::kIoMalformedRecord,
                SourceSpan::Of(in.pos(), in.remaining()),
                std::to_string(in.remaining()) +
                    " trailing byte(s) after the structure");
  }

  Structure s(std::move(signature), static_cast<std::size_t>(domain));
  for (std::size_t r = 0; r < pending.size(); ++r) {
    s.SetRelation(r, std::move(pending[r].rel));
  }
  for (std::size_t c = 0; c < constants.size(); ++c) {
    if (constants[c].has_value) {
      s.SetConstant(c, constants[c].value);
    }
  }
  return s;
}

Status WriteStructureBinaryFile(const Structure& s, const std::string& path) {
  const std::string bytes = SerializeStructureBinary(s);
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "wb"), &std::fclose);
  if (file == nullptr) {
    return Status::InvalidArgument("cannot open " + path + " for writing");
  }
  if (std::fwrite(bytes.data(), 1, bytes.size(), file.get()) != bytes.size()) {
    return Status::Internal("short write on " + path);
  }
  return Status::OK();
}

Result<Structure> ReadStructureBinaryFile(const std::string& path,
                                          DiagnosticSink* sink) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (file == nullptr) {
    return Status::InvalidArgument("cannot open " + path);
  }
  std::string bytes;
  std::vector<char> chunk(kChunkBytes);
  std::size_t n = 0;
  while ((n = std::fread(chunk.data(), 1, chunk.size(), file.get())) > 0) {
    bytes.append(chunk.data(), n);
  }
  if (std::ferror(file.get()) != 0) {
    return Status::Internal("read error on " + path);
  }
  return ParseStructureBinary(bytes, sink);
}

}  // namespace fmtk
