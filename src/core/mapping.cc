#include "core/mapping.h"

#include <algorithm>
#include <cstdint>

#include "common/check.h"

namespace hematch {

namespace {

// Rebuilds a pattern with every event replaced through `translate`;
// returns nullopt if any event translates to kInvalidEventId.
std::optional<Pattern> TranslateNode(const Pattern& p,
                                     const std::vector<EventId>& forward) {
  if (p.is_event()) {
    const EventId source = p.event();
    if (source >= forward.size() || forward[source] == kInvalidEventId) {
      return std::nullopt;
    }
    return Pattern::Event(forward[source]);
  }
  std::vector<Pattern> children;
  children.reserve(p.children().size());
  for (const Pattern& child : p.children()) {
    std::optional<Pattern> translated = TranslateNode(child, forward);
    if (!translated.has_value()) {
      return std::nullopt;
    }
    children.push_back(std::move(*translated));
  }
  Result<Pattern> rebuilt = p.kind() == Pattern::Kind::kSeq
                                ? Pattern::Seq(std::move(children))
                                : Pattern::And(std::move(children));
  // Injectivity of the mapping preserves event distinctness.
  HEMATCH_CHECK(rebuilt.ok(), "translated pattern lost event distinctness");
  return std::move(rebuilt).value();
}

}  // namespace

Mapping::Mapping(std::size_t num_sources, std::size_t num_targets)
    : forward_(num_sources, kInvalidEventId),
      backward_(num_targets, kInvalidEventId) {}

void Mapping::Set(EventId source, EventId target) {
  HEMATCH_CHECK(source < forward_.size(), "mapping source out of range");
  HEMATCH_CHECK(target < backward_.size(), "mapping target out of range");
  HEMATCH_CHECK(forward_[source] == kInvalidEventId,
                "source already mapped");
  HEMATCH_CHECK(!IsSourceNull(source), "source already mapped to ⊥");
  HEMATCH_CHECK(backward_[target] == kInvalidEventId,
                "target already used (mapping must stay injective)");
  forward_[source] = target;
  backward_[target] = source;
  ++size_;
}

void Mapping::Erase(EventId source) {
  HEMATCH_CHECK(source < forward_.size(), "mapping source out of range");
  const EventId target = forward_[source];
  HEMATCH_CHECK(target != kInvalidEventId, "source not mapped");
  forward_[source] = kInvalidEventId;
  backward_[target] = kInvalidEventId;
  --size_;
}

void Mapping::SetUnmapped(EventId source) {
  HEMATCH_CHECK(source < forward_.size(), "mapping source out of range");
  HEMATCH_CHECK(forward_[source] == kInvalidEventId,
                "source already mapped");
  if (null_.empty()) {
    null_.assign(forward_.size(), 0);
  }
  HEMATCH_CHECK(null_[source] == 0, "source already mapped to ⊥");
  null_[source] = 1;
  ++null_count_;
}

void Mapping::ClearUnmapped(EventId source) {
  HEMATCH_CHECK(source < forward_.size(), "mapping source out of range");
  HEMATCH_CHECK(IsSourceNull(source), "source not mapped to ⊥");
  null_[source] = 0;
  --null_count_;
}

std::vector<EventId> Mapping::UnmappedSources() const {
  std::vector<EventId> out;
  for (EventId v = 0; v < forward_.size(); ++v) {
    if (forward_[v] == kInvalidEventId && !IsSourceNull(v)) {
      out.push_back(v);
    }
  }
  return out;
}

std::vector<EventId> Mapping::NullSources() const {
  std::vector<EventId> out;
  for (EventId v = 0; v < forward_.size(); ++v) {
    if (IsSourceNull(v)) {
      out.push_back(v);
    }
  }
  return out;
}

std::vector<EventId> Mapping::UnusedTargets() const {
  std::vector<EventId> out;
  UnusedTargets(out);
  return out;
}

void Mapping::UnusedTargets(std::vector<EventId>& out) const {
  out.clear();
  for (EventId v = 0; v < backward_.size(); ++v) {
    if (backward_[v] == kInvalidEventId) {
      out.push_back(v);
    }
  }
}

std::optional<Pattern> Mapping::TranslatePattern(
    const Pattern& pattern) const {
  return TranslateNode(pattern, forward_);
}

int Mapping::LexCompare(const Mapping& a, const Mapping& b) {
  const std::size_t n = std::min(a.forward_.size(), b.forward_.size());
  for (EventId v = 0; v < n; ++v) {
    // Rank per source: 0 undecided, 1 ⊥, 2 + target otherwise.
    const auto rank = [](const Mapping& m, EventId source) -> std::uint64_t {
      if (m.forward_[source] != kInvalidEventId) {
        return 2ull + m.forward_[source];
      }
      return m.IsSourceNull(source) ? 1ull : 0ull;
    };
    const std::uint64_t ra = rank(a, v);
    const std::uint64_t rb = rank(b, v);
    if (ra != rb) {
      return ra < rb ? -1 : 1;
    }
  }
  if (a.forward_.size() != b.forward_.size()) {
    return a.forward_.size() < b.forward_.size() ? -1 : 1;
  }
  return 0;
}

std::string Mapping::ToString(const EventDictionary* source_dict,
                              const EventDictionary* target_dict) const {
  auto name = [](const EventDictionary* dict, EventId e) {
    if (dict != nullptr && e < dict->size()) {
      return dict->Name(e);
    }
    std::string fallback = "#";
    fallback += std::to_string(e);
    return fallback;
  };
  std::string out;
  for (EventId v = 0; v < forward_.size(); ++v) {
    if (forward_[v] == kInvalidEventId && !IsSourceNull(v)) {
      continue;
    }
    if (!out.empty()) {
      out += ", ";
    }
    out += name(source_dict, v);
    out += "->";
    if (IsSourceNull(v)) {
      out += "⊥";
    } else {
      out += name(target_dict, forward_[v]);
    }
  }
  return out;
}

}  // namespace hematch
