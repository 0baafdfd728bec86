//! Fail fixture caller: calls `used`; `countdown` appears only in a
//! comment and a string.

fn main() {
    fixture::used();
    // countdown(3) in a comment is not a call
    println!("countdown");
}
