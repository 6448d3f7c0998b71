#include "learner/output_trie.h"

namespace procheck::learner {

void OutputTrie::insert(const std::vector<std::string>& word,
                        const std::vector<std::string>& outputs) {
  if (word.size() != outputs.size()) return;  // malformed observation
  int node = 0;
  for (std::size_t i = 0; i < word.size(); ++i) {
    auto [it, fresh] = nodes_[static_cast<std::size_t>(node)].next.try_emplace(word[i]);
    Edge& edge = it->second;
    // An existing edge keeps its output: the first observation wins.
    if (fresh) {
      edge.child = static_cast<int>(nodes_.size());
      edge.output = outputs[i];
      nodes_.emplace_back();
    }
    node = edge.child;
  }
  nodes_[static_cast<std::size_t>(node)].endpoint = true;
}

int OutputTrie::walk(const std::vector<std::string>& word) const {
  int node = 0;
  for (const std::string& symbol : word) {
    const auto& next = nodes_[static_cast<std::size_t>(node)].next;
    auto it = next.find(symbol);
    if (it == next.end()) return -1;
    node = it->second.child;
  }
  return node;
}

std::optional<std::vector<std::string>> OutputTrie::lookup(
    const std::vector<std::string>& word) {
  std::vector<std::string> outputs;
  outputs.reserve(word.size());
  int node = 0;
  for (const std::string& symbol : word) {
    const auto& next = nodes_[static_cast<std::size_t>(node)].next;
    auto it = next.find(symbol);
    if (it == next.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    outputs.push_back(it->second.output);
    node = it->second.child;
  }
  if (nodes_[static_cast<std::size_t>(node)].endpoint) {
    ++stats_.hits;
  } else {
    ++stats_.prefix_hits;
  }
  return outputs;
}

bool OutputTrie::contains(const std::vector<std::string>& word) const {
  return walk(word) >= 0;
}

std::size_t OutputTrie::known_prefix_length(const std::vector<std::string>& word) const {
  std::size_t length = 0;
  int node = 0;
  for (const std::string& symbol : word) {
    const auto& next = nodes_[static_cast<std::size_t>(node)].next;
    auto it = next.find(symbol);
    if (it == next.end()) break;
    node = it->second.child;
    ++length;
  }
  return length;
}

}  // namespace procheck::learner
