//! Pass fixture: the frame decoder validates a header with
//! `parse_header` before sizing anything from it.

pub fn feed(frame: &[u8]) -> bool {
    crate::wire::parse_header(frame).is_ok()
}
