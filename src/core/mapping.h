#ifndef HEMATCH_CORE_MAPPING_H_
#define HEMATCH_CORE_MAPPING_H_

#include <optional>
#include <string>
#include <vector>

#include "log/event_dictionary.h"
#include "pattern/pattern.h"

namespace hematch {

/// A (possibly partial) injective mapping of events `M : V1 -> V2`
/// (Section 2.1). Sources and targets are dense ids in the respective
/// logs' vocabularies.
class Mapping {
 public:
  /// An empty mapping between vocabularies of the given sizes.
  Mapping(std::size_t num_sources, std::size_t num_targets);

  Mapping(const Mapping&) = default;
  Mapping& operator=(const Mapping&) = default;
  Mapping(Mapping&&) = default;
  Mapping& operator=(Mapping&&) = default;

  /// Adds the pair `source -> target`. Requires both ends currently
  /// unmapped (injectivity).
  void Set(EventId source, EventId target);

  /// Removes the pair for `source`. Requires `source` mapped.
  void Erase(EventId source);

  /// Explicitly maps `source` to ⊥ (no counterpart in `V2`). Requires
  /// `source` currently undecided. Null sources count toward
  /// IsComplete() but consume no target.
  void SetUnmapped(EventId source);

  /// Reverts a SetUnmapped decision. Requires `source` null.
  void ClearUnmapped(EventId source);

  /// Target of `source`, or `kInvalidEventId` when unmapped.
  EventId TargetOf(EventId source) const { return forward_[source]; }

  /// Source mapped to `target`, or `kInvalidEventId` when unused.
  EventId SourceOf(EventId target) const { return backward_[target]; }

  bool IsSourceMapped(EventId source) const {
    return forward_[source] != kInvalidEventId;
  }
  bool IsTargetUsed(EventId target) const {
    return backward_[target] != kInvalidEventId;
  }

  /// True when `source` has been explicitly mapped to ⊥.
  bool IsSourceNull(EventId source) const {
    return !null_.empty() && null_[source] != 0;
  }
  /// True when `source` is either mapped or explicitly ⊥.
  bool IsSourceDecided(EventId source) const {
    return IsSourceMapped(source) || IsSourceNull(source);
  }

  std::size_t num_sources() const { return forward_.size(); }
  std::size_t num_targets() const { return backward_.size(); }

  /// Number of mapped pairs (null sources are not counted).
  std::size_t size() const { return size_; }

  /// Number of sources explicitly mapped to ⊥.
  std::size_t num_null_sources() const { return null_count_; }

  /// True when every source is decided: mapped to a target or
  /// explicitly to ⊥. Without SetUnmapped this is the classic "every
  /// source mapped" (which requires num_sources() <= num_targets()).
  bool IsComplete() const { return size_ + null_count_ == forward_.size(); }

  /// Undecided sources (`U1`: neither mapped nor ⊥), ascending.
  std::vector<EventId> UnmappedSources() const;
  /// Unused targets (`U2`), ascending.
  std::vector<EventId> UnusedTargets() const;
  /// The same into `out` (cleared first), reusing its capacity.
  void UnusedTargets(std::vector<EventId>& out) const;
  /// Sources explicitly mapped to ⊥, ascending.
  std::vector<EventId> NullSources() const;

  /// Translates a pattern over `V1` into the corresponding pattern `M(p)`
  /// over `V2`. Returns nullopt when any event of `p` is unmapped.
  std::optional<Pattern> TranslatePattern(const Pattern& pattern) const;

  /// Renders as "A->3, B->4, ..." using the dictionaries when provided.
  std::string ToString(const EventDictionary* source_dict = nullptr,
                       const EventDictionary* target_dict = nullptr) const;

  /// Stable total order over equal-shape mappings: compares the decided
  /// state of each source in id order (undecided < ⊥ < target 0 < target
  /// 1 < ...). Returns <0, 0, >0 like strcmp. Used as the final A*
  /// tie-break key so equal-f frontiers pop in an order independent of
  /// node-creation history — sequential reruns and every parallel-A*
  /// thread count then certify the same canonical optimum.
  static int LexCompare(const Mapping& a, const Mapping& b);

  friend bool operator==(const Mapping& a, const Mapping& b) {
    if (a.forward_ != b.forward_ || a.null_count_ != b.null_count_) {
      return false;
    }
    if (a.null_count_ == 0) {
      return true;
    }
    for (EventId v = 0; v < a.forward_.size(); ++v) {
      if (a.IsSourceNull(v) != b.IsSourceNull(v)) {
        return false;
      }
    }
    return true;
  }

 private:
  std::vector<EventId> forward_;
  std::vector<EventId> backward_;
  // Lazily sized on first SetUnmapped; empty means "no null sources".
  std::vector<unsigned char> null_;
  std::size_t size_ = 0;
  std::size_t null_count_ = 0;
};

}  // namespace hematch

#endif  // HEMATCH_CORE_MAPPING_H_
