"""The benchmark's harness: operation streams (:mod:`harness.ops`),
workloads and their answer gates (:mod:`harness.workloads`), answer
digests (:mod:`harness.answers`), the traced pass's layer wrappers
(:mod:`harness.tracing`) and the measurement loop and command line
(:mod:`harness.runner`)."""
