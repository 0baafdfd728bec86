//! Fail fixture: the worker server frames its requests with a
//! hand-rolled reader instead of the shared decoder.

pub fn read_request(stream: &mut impl std::io::Read, buf: &mut [u8; 32]) -> bool {
    stream.read_exact(buf).is_ok()
}
