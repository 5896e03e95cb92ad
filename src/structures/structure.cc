#include "structures/structure.h"

#include <unordered_map>
#include <utility>

#include "base/check.h"

namespace fmtk {

Structure::Structure(std::shared_ptr<const Signature> signature,
                     std::size_t domain_size)
    : signature_(std::move(signature)), domain_size_(domain_size) {
  FMTK_CHECK(signature_ != nullptr) << "null signature";
  relations_.reserve(signature_->relation_count());
  for (std::size_t i = 0; i < signature_->relation_count(); ++i) {
    relations_.emplace_back(signature_->relation(i).arity);
  }
  constants_.resize(signature_->constant_count());
}

std::uint64_t Structure::NextUid() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

Structure::Structure(const Structure& other)
    : signature_(other.signature_),
      domain_size_(other.domain_size_),
      relations_(other.relations_),
      constants_(other.constants_),
      generation_(other.generation_),
      uid_(NextUid()),
      stats_cache_(other.stats_cache_.load(std::memory_order_acquire)) {}

Structure& Structure::operator=(const Structure& other) {
  if (this == &other) {
    return *this;
  }
  signature_ = other.signature_;
  domain_size_ = other.domain_size_;
  relations_ = other.relations_;
  constants_ = other.constants_;
  generation_ = other.generation_;
  uid_ = NextUid();
  stats_cache_.store(other.stats_cache_.load(std::memory_order_acquire),
                     std::memory_order_release);
  return *this;
}

Structure::Structure(Structure&& other) noexcept
    : signature_(std::move(other.signature_)),
      domain_size_(other.domain_size_),
      relations_(std::move(other.relations_)),
      constants_(std::move(other.constants_)),
      generation_(other.generation_),
      uid_(NextUid()),
      stats_cache_(other.stats_cache_.load(std::memory_order_acquire)) {}

Structure& Structure::operator=(Structure&& other) noexcept {
  if (this == &other) {
    return *this;
  }
  signature_ = std::move(other.signature_);
  domain_size_ = other.domain_size_;
  relations_ = std::move(other.relations_);
  constants_ = std::move(other.constants_);
  generation_ = other.generation_;
  uid_ = NextUid();
  stats_cache_.store(other.stats_cache_.load(std::memory_order_acquire),
                     std::memory_order_release);
  return *this;
}

StructureStats Structure::Stats() const {
  std::shared_ptr<const StructureStats> cached =
      stats_cache_.load(std::memory_order_acquire);
  if (cached != nullptr && cached->generation == generation_) {
    return *cached;
  }
  auto fresh = std::make_shared<StructureStats>(ComputeStructureStats(*this));
  stats_cache_.store(fresh, std::memory_order_release);
  return *fresh;
}

const Relation& Structure::relation(std::size_t index) const {
  FMTK_CHECK(index < relations_.size()) << "relation index out of range";
  return relations_[index];
}

Result<std::size_t> Structure::RelationIndex(std::string_view name) const {
  std::optional<std::size_t> index = signature_->FindRelation(name);
  if (!index.has_value()) {
    return Status::SignatureMismatch("unknown relation symbol: " +
                                     std::string(name));
  }
  return *index;
}

bool Structure::AddTuple(std::size_t index, const Tuple& tuple) {
  FMTK_CHECK(index < relations_.size()) << "relation index out of range";
  for (Element e : tuple) {
    FMTK_CHECK(e < domain_size_)
        << "element " << e << " outside domain of size " << domain_size_;
  }
  ++generation_;
  return relations_[index].Add(tuple);
}

bool Structure::AddTuple(std::string_view name, const Tuple& tuple) {
  Result<std::size_t> index = RelationIndex(name);
  FMTK_CHECK(index.ok()) << index.status().ToString();
  return AddTuple(*index, tuple);
}

Status Structure::TryAddTuple(std::string_view name, Tuple tuple) {
  FMTK_ASSIGN_OR_RETURN(std::size_t index, RelationIndex(name));
  if (tuple.size() != relations_[index].arity()) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(tuple.size()) + " does not match " +
        std::string(name) + "/" + std::to_string(relations_[index].arity()));
  }
  for (Element e : tuple) {
    if (e >= domain_size_) {
      return Status::InvalidArgument(
          "element " + std::to_string(e) + " outside domain of size " +
          std::to_string(domain_size_));
    }
  }
  ++generation_;
  relations_[index].Add(tuple);
  return Status::OK();
}

void Structure::SetRelation(std::size_t index, Relation relation) {
  FMTK_CHECK(index < relations_.size()) << "relation index out of range";
  FMTK_CHECK(relation.arity() == signature_->relation(index).arity)
      << "relation arity " << relation.arity() << " does not match "
      << signature_->relation(index).name << "/"
      << signature_->relation(index).arity;
  ++generation_;
  relations_[index] = std::move(relation);
}

Relation& Structure::MutableRelation(std::size_t index) {
  FMTK_CHECK(index < relations_.size()) << "relation index out of range";
  // Conservative: hand-out of a mutable reference counts as a mutation.
  ++generation_;
  return relations_[index];
}

void Structure::SetConstant(std::size_t index, Element value) {
  FMTK_CHECK(index < constants_.size()) << "constant index out of range";
  FMTK_CHECK(value < domain_size_) << "constant value outside domain";
  ++generation_;
  constants_[index] = value;
}

std::optional<Element> Structure::constant(std::size_t index) const {
  FMTK_CHECK(index < constants_.size()) << "constant index out of range";
  return constants_[index];
}

std::size_t Structure::TupleCount() const {
  std::size_t total = 0;
  for (const Relation& r : relations_) {
    total += r.size();
  }
  return total;
}

bool operator==(const Structure& a, const Structure& b) {
  return a.domain_size_ == b.domain_size_ &&
         (a.signature_ == b.signature_ || *a.signature_ == *b.signature_) &&
         a.relations_ == b.relations_ && a.constants_ == b.constants_;
}

std::string Structure::ToString() const {
  std::string out = "Structure(|A|=" + std::to_string(domain_size_) + ")";
  for (std::size_t i = 0; i < relations_.size(); ++i) {
    out += "\n  " + signature_->relation(i).name + " = " +
           relations_[i].ToString();
  }
  for (std::size_t i = 0; i < constants_.size(); ++i) {
    out += "\n  " + signature_->constant_name(i) + " = ";
    out += constants_[i].has_value() ? std::to_string(*constants_[i])
                                     : std::string("unset");
  }
  return out;
}

Structure InducedSubstructure(const Structure& s,
                              const std::vector<Element>& subdomain) {
  std::unordered_map<Element, Element> renumber;
  renumber.reserve(subdomain.size());
  for (std::size_t i = 0; i < subdomain.size(); ++i) {
    FMTK_CHECK(subdomain[i] < s.domain_size()) << "subdomain element range";
    bool inserted =
        renumber.emplace(subdomain[i], static_cast<Element>(i)).second;
    FMTK_CHECK(inserted) << "duplicate element in subdomain";
  }
  Structure out(s.signature_ptr(), subdomain.size());
  Tuple mapped;
  for (std::size_t r = 0; r < s.signature().relation_count(); ++r) {
    for (const auto t : s.relation(r).rows()) {
      mapped.clear();
      bool keep = true;
      for (Element e : t) {
        auto it = renumber.find(e);
        if (it == renumber.end()) {
          keep = false;
          break;
        }
        mapped.push_back(it->second);
      }
      if (keep) {
        out.AddTuple(r, mapped);
      }
    }
  }
  for (std::size_t c = 0; c < s.signature().constant_count(); ++c) {
    std::optional<Element> value = s.constant(c);
    if (value.has_value()) {
      auto it = renumber.find(*value);
      if (it != renumber.end()) {
        out.SetConstant(c, it->second);
      }
    }
  }
  return out;
}

Result<Structure> DisjointUnion(const Structure& a, const Structure& b) {
  if (!(a.signature() == b.signature())) {
    return Status::SignatureMismatch(
        "disjoint union requires equal signatures: " +
        a.signature().ToString() + " vs " + b.signature().ToString());
  }
  Structure out(a.signature_ptr(), a.domain_size() + b.domain_size());
  const Element shift = static_cast<Element>(a.domain_size());
  for (std::size_t r = 0; r < a.signature().relation_count(); ++r) {
    for (const auto t : a.relation(r).rows()) {
      out.AddTuple(r, Tuple(t.begin(), t.end()));
    }
    for (const auto t : b.relation(r).rows()) {
      Tuple shifted(t.begin(), t.end());
      for (Element& e : shifted) {
        e += shift;
      }
      out.AddTuple(r, shifted);
    }
  }
  for (std::size_t c = 0; c < a.signature().constant_count(); ++c) {
    std::optional<Element> value = a.constant(c);
    if (value.has_value()) {
      out.SetConstant(c, *value);
    }
  }
  return out;
}

}  // namespace fmtk
