#include "obs/profile.hpp"

#if !defined(ECND_OBS_DISABLED)

#include <cstring>
#include <map>
#include <mutex>
#include <ostream>
#include <utility>

namespace ecnd::obs {

namespace detail {
std::atomic<bool> g_prof_on{false};
}  // namespace detail

namespace {

constexpr std::uint32_t kNone = 0xFFFFFFFFu;
constexpr int kMaxDepth = 64;

/// One frame-tree node. Children form a singly-linked sibling list; lookup
/// is a linear walk (fan-out is a handful of literals, and the hot path hits
/// the same child repeatedly so the walk usually stops at the first link).
struct Node {
  const char* name;
  std::uint32_t parent;
  std::uint32_t first_child;
  std::uint32_t next_sibling;
  std::uint64_t hits;
  std::uint64_t total_ns;
};

/// A thread's private tree: written lock-free by its owner, read only after
/// the owner joined (export) or between sweeps (reset). Node 0 is the root.
struct ThreadTree {
  std::vector<Node> nodes;
  ThreadTree() { nodes.push_back({"", kNone, kNone, kNone, 0, 0}); }
};

/// Registry of every thread's tree. Trees are heap-allocated and never
/// freed: a worker's profile must survive its join for the at-exit export.
class ProfStore {
 public:
  static ProfStore& instance() {
    static ProfStore* s = new ProfStore;
    return *s;
  }

  void add(ThreadTree* tree) {
    const std::lock_guard<std::mutex> lock(mutex_);
    trees_.push_back(tree);
  }

  std::vector<ThreadTree*> snapshot() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return trees_;
  }

 private:
  std::mutex mutex_;
  std::vector<ThreadTree*> trees_;
};

thread_local ThreadTree* t_tree = nullptr;
thread_local std::uint32_t t_cur = 0;
thread_local int t_depth = 0;

ThreadTree& tree() {
  if (t_tree == nullptr) {
    t_tree = new ThreadTree;  // deliberately leaked (see ProfStore)
    ProfStore::instance().add(t_tree);
  }
  return *t_tree;
}

/// Cross-thread merge target: same shape as the per-thread trees but keyed
/// by name so two threads' "par.task;sim.run" stacks land in one node, with
/// std::map ordering giving the deterministic child order the folded output
/// needs.
struct Merged {
  std::uint64_t hits = 0;
  std::uint64_t total_ns = 0;
  std::map<std::string, Merged> children;
};

void merge_into(const ThreadTree& tr, std::uint32_t index, Merged& into) {
  for (std::uint32_t child = tr.nodes[index].first_child; child != kNone;
       child = tr.nodes[child].next_sibling) {
    const Node& n = tr.nodes[child];
    Merged& m = into.children[n.name];
    m.hits += n.hits;
    m.total_ns += n.total_ns;
    merge_into(tr, child, m);
  }
}

Merged merged_root() {
  Merged root;
  for (const ThreadTree* tr : ProfStore::instance().snapshot()) {
    merge_into(*tr, 0, root);
  }
  return root;
}

std::uint64_t children_ns(const Merged& node) {
  std::uint64_t total = 0;
  for (const auto& [name, child] : node.children) total += child.total_ns;
  return total;
}

void emit_folded(const Merged& node, std::string& path, std::ostream& out,
                 bool wall_values) {
  for (const auto& [name, child] : node.children) {
    const std::size_t mark = path.size();
    if (!path.empty()) path += ';';
    path += name;
    const std::uint64_t kids = children_ns(child);
    const std::uint64_t self =
        child.total_ns > kids ? child.total_ns - kids : 0;
    out << path << ' ' << (wall_values ? self : child.hits) << '\n';
    emit_folded(child, path, out, wall_values);
    path.resize(mark);
  }
}

void flatten(const Merged& node, int depth, std::vector<ProfileNode>& out) {
  for (const auto& [name, child] : node.children) {
    const std::uint64_t kids = children_ns(child);
    out.push_back({name, depth, child.hits, child.total_ns,
                   child.total_ns > kids ? child.total_ns - kids : 0});
    flatten(child, depth + 1, out);
  }
}

}  // namespace

namespace detail {

std::uint32_t prof_enter(const char* name, bool detach) {
  if (t_depth >= kMaxDepth) return kInert;
  ThreadTree& tr = tree();
  const std::uint32_t parent = detach ? 0 : t_cur;
  std::uint32_t child = tr.nodes[parent].first_child;
  std::uint32_t last = kNone;
  while (child != kNone) {
    const Node& n = tr.nodes[child];
    if (n.name == name || std::strcmp(n.name, name) == 0) break;
    last = child;
    child = n.next_sibling;
  }
  if (child == kNone) {
    child = static_cast<std::uint32_t>(tr.nodes.size());
    tr.nodes.push_back({name, parent, kNone, kNone, 0, 0});
    if (last == kNone) {
      tr.nodes[parent].first_child = child;
    } else {
      tr.nodes[last].next_sibling = child;
    }
  }
  tr.nodes[child].hits += 1;
  const std::uint32_t token = t_cur;
  t_cur = child;
  ++t_depth;
  return token;
}

void prof_exit(std::uint32_t token, std::uint64_t ns) {
  if ((token & kInert) != 0) return;
  ThreadTree& tr = tree();
  tr.nodes[t_cur].total_ns += ns;
  t_cur = token;
  --t_depth;
}

void prof_reset() {
  for (ThreadTree* tr : ProfStore::instance().snapshot()) {
    for (Node& n : tr->nodes) {
      n.hits = 0;
      n.total_ns = 0;
    }
  }
}

}  // namespace detail

void set_profile_enabled(bool on) {
  detail::g_prof_on.store(on, std::memory_order_relaxed);
}

std::vector<ProfileNode> profile_nodes() {
  std::vector<ProfileNode> out;
  flatten(merged_root(), 0, out);
  return out;
}

void write_profile_folded(std::ostream& out, bool wall_values) {
  const Merged root = merged_root();
  std::string path;
  emit_folded(root, path, out, wall_values);
}

}  // namespace ecnd::obs

#else  // ECND_OBS_DISABLED

#include <ostream>

namespace ecnd::obs {

void write_profile_folded(std::ostream& out, bool) { (void)out; }

}  // namespace ecnd::obs

#endif  // ECND_OBS_DISABLED
