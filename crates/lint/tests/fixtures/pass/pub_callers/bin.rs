//! Pass fixture binary: items under `src/bin` are out of scope.

pub fn unused_in_bin() {}

fn main() {}
