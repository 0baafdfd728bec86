//! Fail fixture: the worker server lost both the recognition of a
//! resent frame (`frame_seq`) and the dedup cache (`last_seq`) — a
//! resent mutating request would re-execute — and frames its requests
//! with a hand-rolled reader instead of the shared decoder.

pub fn serve(frame: &[u8]) -> u8 {
    frame[5] // every frame is applied, duplicate or not
}

pub fn read_request(stream: &mut impl std::io::Read, buf: &mut [u8; 32]) -> bool {
    stream.read_exact(buf).is_ok()
}
