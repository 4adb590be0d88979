// End-to-end estimation pipeline: report aggregate -> data-vector estimate
// -> workload answers. Bundles the unbiased path (V y = W (B y)) and the
// consistent WNNLS path behind one call, for any deployable mechanism's
// decoder (estimation/decoder.h); a strategy factorization decodes through
// ReportDecoder::FromAnalysis. Affine decoders (RAPPOR/OUE bit-vector
// deployments) debias against the report count N, so the call always takes
// it; collect/EstimateServer routes every served estimate through here.

#ifndef WFM_ESTIMATION_ESTIMATOR_H_
#define WFM_ESTIMATION_ESTIMATOR_H_

#include <cstdint>

#include "estimation/decoder.h"
#include "estimation/wnnls.h"
#include "workload/workload.h"

namespace wfm {

enum class EstimatorKind {
  kUnbiased,   ///< x_hat = B y; estimates may be negative/inconsistent.
  kWnnls,      ///< Appendix A: non-negative least squares post-processing.
};

struct WorkloadEstimate {
  Vector data_vector;      ///< Estimated x_hat.
  Vector query_answers;    ///< W x_hat.
};

/// Produces workload answers from the aggregate of all reports.
/// `num_reports` is the report count N behind the aggregate — ignored by
/// linear decoders, required by affine ones (RAPPOR/OUE).
WorkloadEstimate EstimateWorkloadAnswers(const ReportDecoder& decoder,
                                         const Workload& workload,
                                         const Vector& aggregate,
                                         std::int64_t num_reports,
                                         EstimatorKind kind);

}  // namespace wfm

#endif  // WFM_ESTIMATION_ESTIMATOR_H_
