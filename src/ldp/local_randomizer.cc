#include "ldp/local_randomizer.h"

namespace wfm {

LocalRandomizer::LocalRandomizer(const Matrix& q) : num_outputs_(q.rows()) {
  samplers_.reserve(q.cols());
  for (int u = 0; u < q.cols(); ++u) {
    samplers_.emplace_back(q.Col(u));
  }
}

}  // namespace wfm
