//! Pass fixture: the worker server frames requests through the shared
//! `FrameDecoder`.

pub fn next_request(decoder: &mut crate::reactor::FrameDecoder) -> &[u8] {
    decoder.frame()
}
