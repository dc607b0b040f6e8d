#ifndef RASA_LP_REVISED_SIMPLEX_H_
#define RASA_LP_REVISED_SIMPLEX_H_

#include "lp/simplex.h"

namespace rasa {

/// Sparse revised simplex over the same equality standard form as the
/// dense tableau (columns [structural | slack | artificial]), but with the
/// basis inverse held as an eta-file product-form factorization
/// (linalg/sparse.h) instead of an explicit dense matrix. Per pivot it
/// does one BTRAN (duals), a sparse pricing sweep, one FTRAN (entering
/// column) and a single eta append; the factorization is rebuilt every 64
/// updates or earlier when a pivot element is too small to update on
/// safely.
///
/// Warm starts (LpOptions::warm_basis): the basis is validated against the
/// current model, bound changes are absorbed by coercing nonbasic columns
/// onto still-existing bounds, and then
///   - a primal-feasible basis goes straight to phase-2 primal pivots
///     (the column-generation case: appended columns price in), while
///   - a dual-feasible basis is repaired with bounded-variable dual
///     simplex pivots (the branch-and-bound case: a child node tightens
///     bounds, so the parent basis stays dual feasible);
/// anything else falls back to a cold start, so correctness never depends
/// on the warm path. Results are extracted from a fresh refactorization of
/// the final basis, so the reported numbers depend only on that basis and
/// not on the pivot history — a warm-started solve that ends in the same
/// basis as a cold one returns bit-identical values.
///
/// On numerical failure (kError) callers should retry with the dense
/// tableau; SolveLp does this automatically.
LpResult SolveLpRevised(const LpModel& model, const LpOptions& options = {});

}  // namespace rasa

#endif  // RASA_LP_REVISED_SIMPLEX_H_
