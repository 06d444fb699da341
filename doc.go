// Package hetpapi reproduces "Performance Measurement on Heterogeneous
// Processors with PAPI" (Cunningham & Weaver, SC 2024) as a pure-Go
// system: a simulated heterogeneous machine substrate (Intel Raptor Lake
// P/E desktop and ARM big.LITTLE OrangePi 800), a faithful perf_event-style
// kernel subsystem, a libpfm4-style event database, and — the paper's
// contribution — a PAPI-style measurement library with full hybrid-CPU
// support.
//
// The packages layer exactly like the real stack:
//
//	internal/hw        machine descriptions (topology, PMUs, power/thermal constants)
//	internal/events    native event database (the per-uarch tables)
//	internal/sysfs     synthetic /sys + /proc discovery surface
//	internal/thermal   lumped RC package thermal model
//	internal/power     RAPL energy counters, PL1/PL2 power limits, wall meter
//	internal/dvfs      frequency governor (power cap + step_wise thermal)
//	internal/workload  HPL (OpenBLAS vs vendor-optimized) and micro workloads
//	internal/sched     CFS-style scheduler with affinity and hybrid noise
//	internal/sim       the stepped machine simulator tying it all together
//	internal/perfevent the perf_event kernel subsystem
//	internal/pfmlib    event-string parsing and encoding (the libpfm4 role)
//	internal/core      the PAPI library with heterogeneous support
//	internal/trace     1 Hz monitoring and multi-run averaging (mon_hpl.py)
//	internal/stats     summary statistics
//	internal/exp       drivers that regenerate every paper table and figure
//
// cmd/hplbench regenerates Table II, Table III, Figures 1-4 and the
// energy table, and cmd/papihet the papi_hybrid test of section IV.F and
// the overhead study of section V.5. The benchmarks in this package
// (bench_test.go) measure the Go-level cost of the measurement paths. See
// DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-versus-measured results.
package hetpapi
