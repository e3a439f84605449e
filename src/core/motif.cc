#include "core/motif.h"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <set>
#include <sstream>

namespace flowmotif {

namespace {

/// Reads one motif node id: one or more decimal digits, at most
/// INT_MAX. Signs, spaces and every other byte are refused, so an id
/// can neither wrap nor hide.
bool ParseNodeId(const std::string& text, MotifNode* id) {
  if (text.empty()) return false;
  int64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
    if (value > INT_MAX) return false;
  }
  *id = static_cast<MotifNode>(value);
  return true;
}

/// Splits `text` at every `separator`, keeping empty tokens (a leading,
/// doubled or trailing separator yields one).
std::vector<std::string> SplitKeepingEmpty(const std::string& text,
                                           char separator) {
  std::vector<std::string> tokens;
  size_t begin = 0;
  while (true) {
    const size_t end = text.find(separator, begin);
    if (end == std::string::npos) {
      tokens.push_back(text.substr(begin));
      return tokens;
    }
    tokens.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
}

}  // namespace

StatusOr<Motif> Motif::Build(
    std::vector<std::pair<MotifNode, MotifNode>> edges, std::string name,
    bool require_path) {
  if (edges.empty()) {
    return Status::InvalidArgument("a motif needs at least one edge");
  }
  MotifNode max_id = -1;
  for (const auto& [src, dst] : edges) {
    if (src < 0 || dst < 0) {
      return Status::InvalidArgument("motif node ids must be >= 0");
    }
    if (src == dst) {
      return Status::InvalidArgument("motif edges cannot be self-loops");
    }
    max_id = std::max(max_id, std::max(src, dst));
  }
  // m edges touch at most 2m nodes, so a larger id cannot be dense;
  // refusing it here keeps a huge id from sizing the tables below.
  if (static_cast<size_t>(max_id) >= 2 * edges.size()) {
    return Status::InvalidArgument(
        "motif node ids must be dense: " + std::to_string(max_id) +
        " exceeds what " + std::to_string(edges.size()) + " edges can reach");
  }

  std::vector<bool> seen(static_cast<size_t>(max_id) + 1, false);
  for (const auto& [src, dst] : edges) {
    seen[static_cast<size_t>(src)] = true;
    seen[static_cast<size_t>(dst)] = true;
  }
  for (size_t i = 0; i < seen.size(); ++i) {
    if (!seen[i]) {
      return Status::InvalidArgument("motif node ids must be dense: missing " +
                                     std::to_string(i));
    }
  }

  std::set<std::pair<MotifNode, MotifNode>> distinct;
  for (const auto& e : edges) {
    if (!distinct.insert(e).second) {
      return Status::InvalidArgument(
          "motif edges must be distinct; repeated edge " +
          std::to_string(e.first) + "->" + std::to_string(e.second));
    }
  }

  // Weak connectivity (union-find over the undirected skeleton).
  std::vector<MotifNode> parent(static_cast<size_t>(max_id) + 1);
  for (size_t i = 0; i < parent.size(); ++i) {
    parent[i] = static_cast<MotifNode>(i);
  }
  auto find = [&parent](MotifNode x) {
    while (parent[static_cast<size_t>(x)] != x) {
      x = parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
    }
    return x;
  };
  for (const auto& [src, dst] : edges) {
    parent[static_cast<size_t>(find(src))] = find(dst);
  }
  for (MotifNode v = 0; v <= max_id; ++v) {
    if (find(v) != find(0)) {
      return Status::InvalidArgument("motif must be weakly connected");
    }
  }

  Motif motif;
  motif.edges_ = std::move(edges);
  motif.num_nodes_ = max_id + 1;

  // Detect the spanning-path special case: consecutive edges chain.
  motif.is_path_ = true;
  for (size_t i = 0; i + 1 < motif.edges_.size(); ++i) {
    if (motif.edges_[i].second != motif.edges_[i + 1].first) {
      motif.is_path_ = false;
      break;
    }
  }
  if (motif.is_path_) {
    motif.path_.push_back(motif.edges_.front().first);
    for (const auto& e : motif.edges_) motif.path_.push_back(e.second);
  } else if (require_path) {
    return Status::InvalidArgument(
        "spanning-path motif required but edges do not chain");
  }

  motif.name_ = name.empty() ? motif.PathString() : std::move(name);
  return motif;
}

StatusOr<Motif> Motif::FromSpanningPath(std::vector<MotifNode> path,
                                        std::string name) {
  if (path.size() < 2) {
    return Status::InvalidArgument("a motif needs at least one edge");
  }
  std::vector<std::pair<MotifNode, MotifNode>> edges;
  edges.reserve(path.size() - 1);
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    edges.push_back({path[i], path[i + 1]});
  }
  return Build(std::move(edges), std::move(name), /*require_path=*/true);
}

StatusOr<Motif> Motif::FromEdgeList(
    std::vector<std::pair<MotifNode, MotifNode>> edges, std::string name) {
  return Build(std::move(edges), std::move(name), /*require_path=*/false);
}

StatusOr<Motif> Motif::Parse(const std::string& text, std::string name) {
  if (text.find('>') != std::string::npos) {
    // Edge-list notation: "0>1,0>2".
    std::vector<std::pair<MotifNode, MotifNode>> edges;
    for (const std::string& token : SplitKeepingEmpty(text, ',')) {
      const size_t arrow = token.find('>');
      if (arrow == std::string::npos) {
        return Status::InvalidArgument("bad motif edge syntax: '" + token +
                                       "' in '" + text + "'");
      }
      MotifNode src = 0;
      MotifNode dst = 0;
      if (!ParseNodeId(token.substr(0, arrow), &src) ||
          !ParseNodeId(token.substr(arrow + 1), &dst)) {
        return Status::InvalidArgument("bad motif node in '" + token +
                                       "' of '" + text + "'");
      }
      edges.push_back({src, dst});
    }
    return FromEdgeList(std::move(edges), std::move(name));
  }

  std::vector<MotifNode> path;
  for (const std::string& token : SplitKeepingEmpty(text, '-')) {
    MotifNode v = 0;
    if (!ParseNodeId(token, &v)) {
      return Status::InvalidArgument("bad motif node '" + token + "' in '" +
                                     text + "'");
    }
    path.push_back(v);
  }
  return FromSpanningPath(std::move(path), std::move(name));
}

bool Motif::HasCycle() const {
  // Iterative DFS with colors over the directed motif graph.
  std::vector<std::vector<MotifNode>> adjacency(
      static_cast<size_t>(num_nodes_));
  for (const auto& [src, dst] : edges_) {
    adjacency[static_cast<size_t>(src)].push_back(dst);
  }
  enum class Color { kWhite, kGray, kBlack };
  std::vector<Color> color(static_cast<size_t>(num_nodes_), Color::kWhite);

  for (MotifNode start = 0; start < num_nodes_; ++start) {
    if (color[static_cast<size_t>(start)] != Color::kWhite) continue;
    // Stack of (node, next-child-index).
    std::vector<std::pair<MotifNode, size_t>> stack{{start, 0}};
    color[static_cast<size_t>(start)] = Color::kGray;
    while (!stack.empty()) {
      auto& [node, child] = stack.back();
      const auto& next = adjacency[static_cast<size_t>(node)];
      if (child >= next.size()) {
        color[static_cast<size_t>(node)] = Color::kBlack;
        stack.pop_back();
        continue;
      }
      const MotifNode target = next[child++];
      if (color[static_cast<size_t>(target)] == Color::kGray) return true;
      if (color[static_cast<size_t>(target)] == Color::kWhite) {
        color[static_cast<size_t>(target)] = Color::kGray;
        stack.push_back({target, 0});
      }
    }
  }
  return false;
}

std::string Motif::PathString() const {
  std::ostringstream os;
  if (is_path_) {
    for (size_t i = 0; i < path_.size(); ++i) {
      if (i > 0) os << '-';
      os << path_[i];
    }
  } else {
    for (size_t i = 0; i < edges_.size(); ++i) {
      if (i > 0) os << ',';
      os << edges_[i].first << '>' << edges_[i].second;
    }
  }
  return os.str();
}

}  // namespace flowmotif
