#include "lazy/task_graph.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

namespace lafp::lazy {

TaskNodePtr TaskGraph::NewNode(exec::OpDesc desc,
                               std::vector<TaskNodePtr> inputs) {
  auto node = std::make_shared<TaskNode>();
  node->id = next_id_++;
  node->desc = std::move(desc);
  node->inputs = std::move(inputs);
  nodes_.push_back(node);
  if (nodes_.size() % 256 == 0) Compact();
  return node;
}

void TaskGraph::Compact() const {
  nodes_.erase(std::remove_if(nodes_.begin(), nodes_.end(),
                              [](const std::weak_ptr<TaskNode>& w) {
                                return w.expired();
                              }),
               nodes_.end());
}

std::vector<TaskNodePtr> TaskGraph::TopoSort(
    const std::vector<TaskNodePtr>& roots) {
  std::vector<TaskNodePtr> order;
  std::unordered_set<const TaskNode*> visited;
  // Iterative post-order DFS.
  struct Frame {
    TaskNodePtr node;
    size_t next_child = 0;
  };
  for (const auto& root : roots) {
    if (root == nullptr || visited.count(root.get()) > 0) continue;
    std::vector<Frame> stack;
    stack.push_back({root});
    visited.insert(root.get());
    while (!stack.empty()) {
      Frame& top = stack.back();
      size_t total = top.node->inputs.size() + top.node->order_deps.size();
      if (top.next_child < total) {
        const TaskNodePtr& child =
            top.next_child < top.node->inputs.size()
                ? top.node->inputs[top.next_child]
                : top.node
                      ->order_deps[top.next_child - top.node->inputs.size()];
        ++top.next_child;
        if (child != nullptr && visited.insert(child.get()).second) {
          stack.push_back({child});
        }
      } else {
        order.push_back(top.node);
        stack.pop_back();
      }
    }
  }
  return order;
}

int TaskGraph::CountConsumers(const TaskNode* node) const {
  int count = 0;
  for (const auto& weak : nodes_) {
    auto live = weak.lock();
    if (live == nullptr) continue;
    for (const auto& in : live->inputs) {
      if (in.get() == node) ++count;
    }
  }
  return count;
}

std::vector<TaskNodePtr> TaskGraph::Consumers(const TaskNode* node) const {
  std::vector<TaskNodePtr> out;
  std::unordered_set<const TaskNode*> seen;
  for (const auto& weak : nodes_) {
    auto live = weak.lock();
    if (live == nullptr || seen.count(live.get()) > 0) continue;
    for (const auto& in : live->inputs) {
      if (in.get() == node) {
        out.push_back(live);
        seen.insert(live.get());
        break;
      }
    }
  }
  return out;
}

std::vector<TaskNodePtr> TaskGraph::LiveNodes() const {
  Compact();
  std::vector<TaskNodePtr> out;
  std::unordered_set<const TaskNode*> seen;
  for (const auto& weak : nodes_) {
    auto live = weak.lock();
    if (live != nullptr && seen.insert(live.get()).second) {
      out.push_back(std::move(live));
    }
  }
  return out;
}

std::string TaskGraph::ToDot(const std::vector<TaskNodePtr>& roots) {
  std::ostringstream os;
  os << "digraph lafp {\n  rankdir=BT;\n";
  for (const auto& node : TopoSort(roots)) {
    os << "  n" << node->id << " [label=\"";
    for (char c : node->desc.ToString()) {
      if (c == '"' || c == '\\') os << '\\';
      os << c;
    }
    if (node->persist) os << " [persist]";
    os << "\"];\n";
    for (const auto& in : node->inputs) {
      os << "  n" << node->id << " -> n" << in->id << ";\n";
    }
    for (const auto& dep : node->order_deps) {
      os << "  n" << node->id << " -> n" << dep->id
         << " [style=dashed];\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace lafp::lazy
