//! Pass fixture: the client core goes through the shared codec surface
//! on every leg — `encode_request` (frame building), `decode_response`
//! (reply parsing) and `set_seq` (idempotent-retry stamping).

pub fn submit(req: &crate::worker::Request, seq: u16, buf: &mut Vec<u8>) {
    crate::wire::encode_request(req, buf);
    crate::wire::set_seq(buf, seq);
}

pub fn collect(frame: &[u8]) -> crate::worker::Response {
    crate::wire::decode_response(frame).unwrap()
}
