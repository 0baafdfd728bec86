//! Fail fixture: the pub items at lines 6, 11, 14 and 22 have no caller;
//! `used` and `Waived` are not flagged.

/// Recursion inside its own definition is not a caller.
#[must_use]
pub fn countdown(n: u32) -> u32 {
    if n == 0 { 0 } else { countdown(n - 1) }
}

/// Named only by this file's tests.
pub const ONLY_TESTED: u32 = 3;

/// Named only by a re-export.
pub struct ReExported;

pub use self::ReExported as Alias;

/// Called from the paired caller file.
pub fn used() {}

// jc-lint: allow(pub-callers)
pub enum Unreasoned {
    A,
}

// jc-lint: allow(pub-callers): kept as a reviewed exception
pub struct Waived;

#[cfg(test)]
mod tests {
    /// Test helpers are out of scope.
    pub fn helper() -> u32 {
        super::countdown(super::ONLY_TESTED)
    }
}
