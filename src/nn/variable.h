#ifndef SEMTAG_NN_VARIABLE_H_
#define SEMTAG_NN_VARIABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "la/matrix.h"

namespace semtag::nn {

class Variable;

namespace internal {

/// A node of the dynamically built computation graph. Nodes are created in
/// forward order; the strictly increasing `sequence` gives a valid reverse
/// topological order for backpropagation (a node's parents are always
/// created before it).
struct Node {
  la::Matrix value;
  la::Matrix grad;  // allocated lazily, same shape as value
  bool requires_grad = false;
  uint64_t sequence = 0;
  std::vector<std::shared_ptr<Node>> parents;
  /// Adds this node's contribution to its parents' grads. Null for leaves.
  std::function<void(Node*)> backward;

  /// Ensures grad is allocated (zeros) and returns it.
  la::Matrix* EnsureGrad();
};

}  // namespace internal

/// A handle to a graph node: the tensor type of the autograd engine.
/// Copying a Variable copies the handle, not the data.
class Variable {
 public:
  Variable() = default;

  /// Creates a leaf holding `value`. Set requires_grad for parameters.
  explicit Variable(la::Matrix value, bool requires_grad = false);

  bool defined() const { return node_ != nullptr; }
  const la::Matrix& value() const { return node_->value; }
  la::Matrix& mutable_value() { return node_->value; }
  const la::Matrix& grad() const { return node_->grad; }
  bool requires_grad() const { return node_ && node_->requires_grad; }

  size_t rows() const { return node_->value.rows(); }
  size_t cols() const { return node_->value.cols(); }

  /// Zeroes the accumulated gradient (parameters, between optimizer steps).
  void ZeroGrad();

  /// Internal: wraps an existing node.
  explicit Variable(std::shared_ptr<internal::Node> node)
      : node_(std::move(node)) {}
  const std::shared_ptr<internal::Node>& node() const { return node_; }

 private:
  std::shared_ptr<internal::Node> node_;
};

/// Creates a non-leaf node from parents with the given backward function.
/// The node requires grad iff any parent does; backward is dropped
/// otherwise so inference builds no tape.
Variable MakeOpNode(la::Matrix value,
                    std::vector<std::shared_ptr<internal::Node>> parents,
                    std::function<void(internal::Node*)> backward);

/// Runs backpropagation from a scalar (1x1) loss variable, accumulating
/// into the .grad of every reachable node that requires grad. `seed_grad`
/// seeds d(loss)/d(loss); batched training passes the batch size so a
/// mean-over-B loss yields the same summed parameter gradients as B
/// per-example backward passes.
void Backward(const Variable& loss, float seed_grad = 1.0f);

}  // namespace semtag::nn

#endif  // SEMTAG_NN_VARIABLE_H_
