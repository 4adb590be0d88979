// Client-side execution of a strategy-matrix mechanism: turn one user's true
// type into one randomized response (Definition 2.5). Each column of Q is
// compiled into an alias table once, so responding is O(1) per user.

#ifndef WFM_LDP_LOCAL_RANDOMIZER_H_
#define WFM_LDP_LOCAL_RANDOMIZER_H_

#include <vector>

#include "common/check.h"
#include "linalg/matrix.h"
#include "linalg/rng.h"
#include "linalg/samplers.h"

namespace wfm {

class LocalRandomizer {
 public:
  /// `q` must be column-stochastic (columns are response distributions).
  explicit LocalRandomizer(const Matrix& q);

  /// Randomized response o = M_Q(u), an index in [0, num_outputs()).
  int Respond(int user_type, Rng& rng) const {
    WFM_CHECK(user_type >= 0 && user_type < num_types());
    return samplers_[user_type].Sample(rng);
  }

  int num_outputs() const { return num_outputs_; }
  int num_types() const { return static_cast<int>(samplers_.size()); }

 private:
  std::vector<AliasSampler> samplers_;  // One per user type (column).
  int num_outputs_;
};

}  // namespace wfm

#endif  // WFM_LDP_LOCAL_RANDOMIZER_H_
