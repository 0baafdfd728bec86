//! Pass fixture: every pub item has a caller, or is out of reach of the
//! pass.

/// Called from the benchmark rig.
pub fn called_elsewhere() {}

/// Called in this file, outside its definition and the tests.
pub fn helper() -> u32 {
    7
}

/// Called from the caller file; names `helper` and `WIDTH`.
pub fn show() -> String {
    format!("{WIDTH:>4}{}", helper())
}

/// Named only through a format-string capture.
pub const WIDTH: usize = 8;

/// Named only by its own impl: the pass cannot see that it is dead.
pub struct OnlyImpl;

impl Default for OnlyImpl {
    fn default() -> OnlyImpl {
        OnlyImpl
    }
}

/// A reasoned waiver.
// jc-lint: allow(pub-callers): read as data by a tool
pub const TABLE: &[&str] = &["a"];

/// A restricted item is not public surface.
pub(crate) fn internal() {}
