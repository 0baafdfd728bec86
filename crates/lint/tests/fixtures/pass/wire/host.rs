//! Pass fixture: the server core references both of its legs of the
//! sequence-number contract — recognition (`frame_seq`) and the dedup
//! cache (`last_seq`). Stamping (`set_seq`) is the client's leg and
//! lives in the channel fixture.

pub struct Dedup {
    pub last_seq: u16,
    pub cached: Vec<u8>,
}

pub fn handle(frame: &[u8], dedup: &mut Dedup) -> bool {
    let seq = crate::wire::frame_seq(frame);
    seq != 0 && seq == dedup.last_seq
}
