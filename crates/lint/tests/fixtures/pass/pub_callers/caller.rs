//! Pass fixture caller, read as part of the benchmark rig.

pub fn probe() -> String {
    fixture::called_elsewhere();
    fixture::show()
}
