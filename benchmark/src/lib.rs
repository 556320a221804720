//! The dLTE benchmark: five workloads over both architectures, five
//! end-to-end metrics with fixed regression bounds, and a traced pass that
//! attributes host time to layers. See `README.md` beside this package.

pub mod alloc;
pub mod machine;
pub mod measure;
pub mod probes;
pub mod run;
pub mod spec;
pub mod traced;
pub mod workloads;
