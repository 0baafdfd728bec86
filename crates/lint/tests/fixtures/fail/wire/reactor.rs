//! Fail fixture: the frame decoder sizes its payload buffer from raw
//! header bytes instead of a header validated by `parse_header`.

pub fn frame_len(header: &[u8]) -> usize {
    32 + u64::from_le_bytes(header[8..16].try_into().unwrap()) as usize
}
