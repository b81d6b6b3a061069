// Shared vocabulary for the model persistence formats.
//
// Every trained model serializes to a versioned, line-oriented,
// tab-separated text block: a "roadmine-<type> v<N>" header line, then
// sections introduced by "<section> <count>" lines. Doubles are written
// with %.17g so a round-trip reproduces them bit-for-bit. Feature columns
// are stored by name and re-resolved against the scoring dataset on load,
// which is what lets a model trained on one network score another with
// the same schema. Container formats (M5, bagged ensembles) embed inner
// model blocks verbatim; inner formats are self-terminating (every
// section carries its count), so trailing text after a block is ignored
// by that block's parser.
#ifndef ROADMINE_ML_SERIALIZE_H_
#define ROADMINE_ML_SERIALIZE_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "ml/common.h"
#include "util/status.h"

namespace roadmine::ml {

// %.17g — the shortest printf format that round-trips any finite double.
std::string SerializeDouble(double value);

// Forward-only cursor over the lines of a serialized block. Empty lines
// are skipped, so formats may be separated by blank lines when embedded.
class LineCursor {
 public:
  explicit LineCursor(const std::string& text);

  // Next non-empty line, or nullptr at end of input.
  const std::string* Next();
  // Like Next() without consuming.
  const std::string* Peek();
  // Unconsumed lines rejoined with '\n' — hands an embedded trailing
  // block (e.g. an M5 structure tree) to its own parser.
  std::string Remainder() const;

 private:
  std::vector<std::string> lines_;
  size_t pos_ = 0;
};

// Appends the feature-schema section shared by the tree and Bayes
// formats:
//   features N
//   feature\t<name>\t<numeric|categorical>   (N lines)
void AppendFeatureSection(const std::vector<FeatureRef>& features,
                          std::string* out);

// Parses a feature-schema section, re-resolving each name against
// `dataset` and checking the stored type against the live column's.
// Training formats always carry at least one feature; pass `allow_empty`
// for sections that may legitimately be empty (a compiled FlatModel's
// leaf-model features, or a single-leaf tree with no splits).
[[nodiscard]] util::Result<std::vector<FeatureRef>> ParseFeatureSection(
    LineCursor& cursor, const data::Dataset& dataset,
    bool allow_empty = false);

// Parses "<keyword> <count>" with a nonnegative count.
[[nodiscard]] util::Result<int64_t> ParseCountLine(LineCursor& cursor,
                                     const std::string& keyword);

// Parses the child index field of node `parent` in a serialized tree of
// `node_count` nodes. Fit appends children after their parent, so an
// internal node's child must satisfy parent < child < node_count, which
// also keeps a loaded tree acyclic: every walk from the root ends at a
// leaf. Leaves hold -1, or their former children once pruned. The value
// is range-checked as an int64 before it is narrowed.
[[nodiscard]] util::Result<int> ParseChildIndex(const std::string& text,
                                                int64_t parent,
                                                int64_t node_count,
                                                bool is_leaf);

}  // namespace roadmine::ml

#endif  // ROADMINE_ML_SERIALIZE_H_
