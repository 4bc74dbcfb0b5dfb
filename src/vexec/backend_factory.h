#ifndef LEARNEDSQLGEN_VEXEC_BACKEND_FACTORY_H_
#define LEARNEDSQLGEN_VEXEC_BACKEND_FACTORY_H_

#include <memory>

#include "exec/backend.h"
#include "vexec/vectorized_engine.h"

namespace lsg {
namespace vexec {

/// Builds the requested execution backend over `db` (which must outlive
/// the result). Test and benchmark use only: production code constructs
/// VectorizedEngine directly. It stays for the goodput benchmark's
/// engine cross-check (perfbench/layers.cc), which builds both engines
/// through it. kReference ignores `opts.workers`/`opts.inject`;
/// `opts.max_intermediate_tuples` applies to both engines so they agree on
/// the join-blowup OutOfRange boundary.
std::unique_ptr<ExecutionBackend> MakeBackend(ExecutionBackendKind kind,
                                              const Database* db,
                                              const VexecOptions& opts = {});

}  // namespace vexec
}  // namespace lsg

#endif  // LEARNEDSQLGEN_VEXEC_BACKEND_FACTORY_H_
