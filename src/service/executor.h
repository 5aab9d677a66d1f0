// The one job executor behind every front end: `mdc_cli anonymize|perturb|
// compare`, `mdc_cli serve` (as the ServiceCore executor), `mdc_cli batch`
// (kind=anonymize per row) and bench/bench_service.
//
// A job is a JobSpec: a kind and a key=value param map. The kinds:
//
//   anonymize  algorithm=<generalization name>   -> release CSV
//   perturb    mechanism=<noise|rankswap|microagg> -> release CSV
//   compare    algorithms=<a,b,...>              -> comparison report text
//   report     algorithm=<any name>              -> release text + a
//                                                   k-anonymity line or
//                                                   the permutation summary
//
// Params shared by all kinds: dataset=table1 or input+schema[+hierarchies]
// files, k (default 2; also the microaggregation group size),
// max_suppression (a fraction in [0, 1]), the perturbation knobs seed /
// noise_scale / swap_window, sensitive (two-way compare column index) and
// cache=off. Bad numbers are InvalidArgument before any input is read.
//
// Algorithm names resolve through one table-driven registry in
// executor.cc: each entry maps a name to its config and run call, plus an
// optional Checkpointable hook. Two entries have one: optimal (anonymize
// kind) and the three perturbative mechanisms (perturb kind). Those kinds
// resume from ExecRequest::resume_checkpoint and hand back the state a
// budget expiry captured in ExecResult::checkpoint.
//
// Artifacts are pure functions of the spec and the input bytes: no
// timings, and the same bytes whichever front end runs the job, with the
// service's dataset cache on or off.

#ifndef MDC_SERVICE_EXECUTOR_H_
#define MDC_SERVICE_EXECUTOR_H_

#include <string>

#include "service/service_core.h"

namespace mdc::service {

// Runs one attempt of `request.spec` with `threads` workers (<= 0: one per
// hardware thread; results are identical for any value). Error messages
// carry a "job <id>: " prefix when the spec has an id. When `summary` is
// non-null it receives the CLI's stderr lines: the release summary for
// anonymize and perturb (perturb builds the permutation model for it),
// then "run stats: ..." when the request carries a RunContext.
ServiceCore::ExecResult ExecuteJob(const ServiceCore::ExecRequest& request,
                                   int threads,
                                   std::string* summary = nullptr);

}  // namespace mdc::service

#endif  // MDC_SERVICE_EXECUTOR_H_
