//! Fail fixture: the server core lost both the recognition of a
//! resent frame (`frame_seq`) and the dedup cache (`last_seq`) — a
//! resent mutating request would re-execute.

pub fn handle(frame: &[u8]) -> u8 {
    frame[5] // every frame is applied, duplicate or not
}
