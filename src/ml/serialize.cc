#include "ml/serialize.h"

#include <cstdio>
#include <limits>

#include "util/string_util.h"

namespace roadmine::ml {

using util::InvalidArgumentError;

std::string SerializeDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

LineCursor::LineCursor(const std::string& text)
    : lines_(util::Split(text, '\n')) {}

const std::string* LineCursor::Next() {
  while (pos_ < lines_.size() && lines_[pos_].empty()) ++pos_;
  return pos_ < lines_.size() ? &lines_[pos_++] : nullptr;
}

const std::string* LineCursor::Peek() {
  while (pos_ < lines_.size() && lines_[pos_].empty()) ++pos_;
  return pos_ < lines_.size() ? &lines_[pos_] : nullptr;
}

std::string LineCursor::Remainder() const {
  std::string out;
  for (size_t i = pos_; i < lines_.size(); ++i) {
    out += lines_[i];
    out += '\n';
  }
  return out;
}

void AppendFeatureSection(const std::vector<FeatureRef>& features,
                          std::string* out) {
  *out += "features " + std::to_string(features.size()) + "\n";
  for (const FeatureRef& ref : features) {
    *out += "feature\t" + ref.name + "\t";
    *out += ref.type == data::ColumnType::kNumeric ? "numeric" : "categorical";
    *out += "\n";
  }
}

util::Result<std::vector<FeatureRef>> ParseFeatureSection(
    LineCursor& cursor, const data::Dataset& dataset, bool allow_empty) {
  auto count = ParseCountLine(cursor, "features");
  if (!count.ok()) return count.status();
  if (*count <= 0 && !allow_empty) {
    return InvalidArgumentError("empty feature list");
  }
  // No reserve: the count is untrusted text, so the list grows only as
  // feature lines are actually read.
  std::vector<FeatureRef> features;
  for (int64_t i = 0; i < *count; ++i) {
    const std::string* line = cursor.Next();
    if (line == nullptr) return InvalidArgumentError("truncated feature list");
    const std::vector<std::string> parts = util::Split(*line, '\t');
    if (parts.size() != 3 || parts[0] != "feature") {
      return InvalidArgumentError("bad feature line: " + *line);
    }
    auto index = dataset.ColumnIndex(parts[1]);
    if (!index.ok()) return index.status();
    FeatureRef ref;
    ref.name = parts[1];
    ref.column_index = *index;
    ref.type = dataset.column(*index).type();
    const bool expect_numeric = parts[2] == "numeric";
    if (expect_numeric != (ref.type == data::ColumnType::kNumeric)) {
      return InvalidArgumentError("schema mismatch for feature '" + parts[1] +
                                  "'");
    }
    features.push_back(std::move(ref));
  }
  return features;
}

util::Result<int64_t> ParseCountLine(LineCursor& cursor,
                                     const std::string& keyword) {
  const std::string* line = cursor.Next();
  const std::string prefix = keyword + " ";
  int64_t count = 0;
  if (line == nullptr || !util::StartsWith(*line, prefix) ||
      !util::ParseInt(line->substr(prefix.size()), &count) || count < 0) {
    return InvalidArgumentError("bad '" + keyword + "' count line");
  }
  return count;
}

util::Result<int> ParseChildIndex(const std::string& text, int64_t parent,
                                  int64_t node_count, bool is_leaf) {
  int64_t child = 0;
  if (!util::ParseInt(text, &child)) {
    return InvalidArgumentError("bad child index '" + text + "'");
  }
  const bool forward = child > parent && child < node_count &&
                       child <= std::numeric_limits<int>::max();
  if (!forward && !(is_leaf && child == -1)) {
    return InvalidArgumentError("child index " + text + " of node " +
                                std::to_string(parent) + " out of range");
  }
  return static_cast<int>(child);
}

}  // namespace roadmine::ml
