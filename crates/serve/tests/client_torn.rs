//! Property tests for the shared HTTP response reader (loadgen, the
//! CLI client and peer calls all read through it): a torn or
//! truncated response — any strict prefix of a valid wire image — must
//! come back as an error (which the resilience layer turns into a
//! reconnect-and-retry), never a panic and never a partial success
//! passed off as complete. Arbitrary byte salad must never panic.

use std::io::Read as _;

use occache_serve::http::read_response_from;
use proptest::prelude::*;

const PAD_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";

/// Builds a valid HTTP/1.1 response wire image.
fn wire(status: u16, retry_after: Option<u64>, pad: &str, body: &str) -> String {
    let retry = retry_after.map_or(String::new(), |s| format!("Retry-After: {s}\r\n"));
    format!(
        "HTTP/1.1 {status} Whatever\r\nContent-Length: {}\r\n{retry}X-Pad: {pad}\r\n\r\n{body}",
        body.len()
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary bytes must produce a verdict, never a panic.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(0u8..=255, 192),
        len in 0usize..=192,
    ) {
        let _ = read_response_from(&mut &bytes[..len]);
    }

    /// Every strict prefix of a valid response is an error; the full
    /// wire parses back exactly.
    #[test]
    fn torn_responses_always_error_and_full_ones_round_trip(
        status in 100u16..=599,
        retry_raw in 0u64..=130,
        pad_idx in proptest::collection::vec(0u8..=255, 16),
        pad_len in 0usize..=16,
        body_idx in proptest::collection::vec(0u8..=94, 64),
        body_len in 0usize..=64,
    ) {
        let retry_after = (retry_raw <= 120).then_some(retry_raw);
        let pad: String = pad_idx[..pad_len]
            .iter()
            .map(|&i| PAD_CHARS[i as usize % PAD_CHARS.len()] as char)
            .collect();
        let body: String = body_idx[..body_len]
            .iter()
            .map(|&i| (b' ' + i) as char)
            .collect();
        let text = wire(status, retry_after, &pad, &body);
        let bytes = text.as_bytes();
        for cut in 0..bytes.len() {
            let torn = read_response_from(&mut bytes.take(cut as u64));
            prop_assert!(
                torn.is_err(),
                "prefix of {} of {} bytes parsed as a response",
                cut,
                bytes.len()
            );
        }
        match read_response_from(&mut &bytes[..]) {
            Ok(response) => {
                prop_assert_eq!(response.status, status);
                prop_assert_eq!(response.body, body);
                prop_assert_eq!(response.retry_after, retry_after);
            }
            Err(e) => prop_assert!(false, "full wire failed to parse: {}", e),
        }
    }
}
