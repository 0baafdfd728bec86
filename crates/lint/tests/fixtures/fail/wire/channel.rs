//! Fail fixture: the client core builds frames through the shared
//! encoder but parses replies by hand (no `decode_response`) and never
//! stamps sequence numbers (no `set_seq`) — a retry would double-apply
//! and the hand parse sits outside the exhaustiveness checks.

pub fn submit(req: &crate::worker::Request, buf: &mut Vec<u8>) {
    crate::wire::encode_request(req, buf);
}

pub fn collect(frame: &[u8]) -> u8 {
    frame[5] // opcode byte, parsed by hand
}
