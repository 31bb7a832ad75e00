//! Helpers shared by the integration test binaries (`mod support;`).

pub mod oracle;
