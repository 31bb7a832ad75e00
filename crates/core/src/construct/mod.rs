//! Synopsis construction (§5): refinement operations and the XBUILD
//! marginal-gains driver.

pub mod delta;
pub mod refine;
pub mod sample;
pub mod xbuild;

pub use delta::{delta_xbuild, DeltaBuildOptions, DeltaBuildOutcome, DeltaBuildReport, DriftMeter};
pub use refine::Refinement;
pub use xbuild::{
    workload_error, workload_error_compiled, xbuild, xbuild_from, xbuild_from_with_workload,
    BuildOptions, BuildTrace, RoundInfo, TruthSource,
};
