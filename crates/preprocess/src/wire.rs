//! Wire protocol between producer (CPU node) and consumer (GPU node).
//!
//! The framing itself — 4-byte little-endian length prefix, chunked
//! hostile-input-safe reads, JSON control messages — lives in
//! [`dt_simengine::frame`], the codec this module shares with the
//! `dt-serve` planner daemon (one implementation, two protocols). This
//! module defines the preprocessing protocol's *messages*: the consumer's
//! [`Request`]s and the producer's [`BatchHeader`] response (followed by
//! one raw frame of concatenated token bytes, never base64-inflated).
//! Their JSON codecs are generated from their field lists by
//! [`dt_simengine::wire_enum!`] and [`dt_simengine::wire_struct!`]; a
//! sample's codec lives beside [`TrainSample`] in `dt-data`, and rejects
//! more than [`MAX_IMAGES`](dt_data::MAX_IMAGES) resolutions or more
//! generation targets than images.
//!
//! ```text
//! request:  [len][json Request]
//! response: [len][json BatchHeader] [len][raw token bytes]
//! ```

use dt_data::TrainSample;
use dt_simengine::{wire_enum, wire_struct};

// The messages' codec trait, beside them: perfbench's frame probe imports
// it as `dt_preprocess::wire::WireJson`.
pub use dt_simengine::schema::WireJson;

/// The most samples one `FetchBatch` may ask for: the production task's
/// global batch of 1920 (`TrainingTask::production`), the largest anything
/// requests. The producer allocates a request's samples up front, so an
/// unbounded count (`u32::MAX` is ~4.3 G samples) lets one frame abort it.
/// A larger count is a malformed request, and [`crate::ConsumerBuilder`]
/// refuses to ask for one.
pub const MAX_FETCH_COUNT: u32 = 1920;

/// Consumer → producer control messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Produce and send the next global batch of `count` samples.
    FetchBatch {
        /// Samples in the requested global batch.
        count: u32,
    },
    /// Close the session.
    Shutdown,
}

/// Metadata frame preceding the bulk token bytes of one global batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchHeader {
    /// The (already reordered) samples, in dispatch order.
    pub samples: Vec<TrainSample>,
    /// Per-sample token-byte lengths, same order (the bulk frame is their
    /// concatenation).
    pub token_lens: Vec<u64>,
    /// Producer-side CPU time spent preprocessing this batch, nanoseconds
    /// (reported for the Figure 17 accounting).
    pub producer_cpu_ns: u64,
}

wire_enum!(Request {
    FetchBatch { count },
    Shutdown
});
wire_struct!(BatchHeader {
    samples,
    token_lens,
    producer_cpu_ns
});

#[cfg(test)]
mod tests {
    use super::*;
    use dt_data::MAX_IMAGES;
    use dt_simengine::frame::{read_frame, read_json, write_frame, write_json};
    use dt_simengine::json::Json;
    use std::io::Cursor;

    #[test]
    fn json_messages_round_trip() {
        let mut buf = Vec::new();
        write_json(&mut buf, &Request::FetchBatch { count: 42 }).unwrap();
        write_json(&mut buf, &Request::Shutdown).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(
            read_json::<Request>(&mut cur).unwrap(),
            Request::FetchBatch { count: 42 }
        );
        assert_eq!(read_json::<Request>(&mut cur).unwrap(), Request::Shutdown);
    }

    fn header(gen_images: u32) -> BatchHeader {
        let sample = TrainSample {
            id: 99,
            text_tokens: 8,
            image_resolutions: [224, 512].into_iter().collect(),
            gen_images,
            gen_resolution: 1024,
            patch: 14,
        };
        BatchHeader {
            samples: vec![sample],
            token_lens: vec![17],
            producer_cpu_ns: 5_000,
        }
    }

    #[test]
    fn batch_header_round_trips() {
        let header = header(2);
        let mut buf = Vec::new();
        write_json(&mut buf, &header).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_json::<BatchHeader>(&mut cur).unwrap(), header);
    }

    #[test]
    fn header_with_more_generation_targets_than_images_is_rejected() {
        let json = header(3).samples[0].to_json();
        assert!(matches!(
            TrainSample::from_json(&json),
            Err(reason) if reason.contains("3 generation targets")
        ));
        let mut buf = Vec::new();
        write_json(&mut buf, &header(3)).unwrap();
        let err = read_json::<BatchHeader>(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    /// A header of one full sample ([`MAX_IMAGES`] resolutions, the §2.3
    /// palette twice) as the `Vec`-based encoder wrote it: valid samples
    /// keep their wire bytes.
    const FULL_HEADER_JSON: &str = concat!(
        r#"{"samples":[{"id":7,"text_tokens":1216,"#,
        r#""image_resolutions":[256,384,512,768,1024,256,384,512,768,1024],"#,
        r#""gen_images":3,"gen_resolution":1024,"patch":16}],"#,
        r#""token_lens":[12345],"producer_cpu_ns":5000}"#
    );

    #[test]
    fn a_full_sample_keeps_its_wire_bytes_and_round_trips() {
        let sample = TrainSample {
            id: 7,
            text_tokens: 1216,
            image_resolutions: [256, 384, 512, 768, 1024, 256, 384, 512, 768, 1024]
                .into_iter()
                .collect(),
            gen_images: 3,
            gen_resolution: 1024,
            patch: 16,
        };
        assert_eq!(sample.image_resolutions.len(), MAX_IMAGES);
        let header = BatchHeader {
            samples: vec![sample],
            token_lens: vec![12_345],
            producer_cpu_ns: 5_000,
        };
        let mut buf = Vec::new();
        write_json(&mut buf, &header).unwrap();
        assert_eq!(&buf[4..], FULL_HEADER_JSON.as_bytes());
        assert_eq!(
            read_json::<BatchHeader>(&mut Cursor::new(buf)).unwrap(),
            header
        );
    }

    /// [`FULL_HEADER_JSON`] with one resolution more than a sample holds.
    fn overfull_header_json() -> String {
        FULL_HEADER_JSON.replace(",1024],", ",1024,512],")
    }

    #[test]
    fn more_than_max_images_resolutions_is_malformed() {
        let overfull = overfull_header_json();
        let value = Json::parse(&overfull).unwrap();
        let sample = &value.get("samples").and_then(Json::as_array).unwrap()[0];
        assert!(matches!(
            TrainSample::from_json(sample),
            Err(reason) if reason.contains("11 images")
        ));
        let mut buf = Vec::new();
        write_frame(&mut buf, overfull.as_bytes()).unwrap();
        let err = read_json::<BatchHeader>(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_producer_sent_an_overfull_sample_keeps_serving_a_good_client() {
        use crate::Preprocess;
        use dt_data::{DataConfig, ResolutionMode};
        use std::io::Read;
        use std::net::TcpStream;

        let data = DataConfig {
            resolution: ResolutionMode::Fixed(64),
            ..DataConfig::evaluation(64)
        };
        let mut handle = Preprocess::builder(data, 19).spawn().unwrap();
        let mut bad = TcpStream::connect(handle.addr()).unwrap();
        write_frame(&mut bad, overfull_header_json().as_bytes()).unwrap();
        // The producer closes the session: EOF or a reset, never data.
        assert!(matches!(bad.read(&mut [0u8; 1]), Ok(0) | Err(_)));
        assert_eq!(handle.stats().malformed_frames, 1);
        let mut good = TcpStream::connect(handle.addr()).unwrap();
        write_json(&mut good, &Request::FetchBatch { count: 2 }).unwrap();
        let header: BatchHeader = read_json(&mut good).unwrap();
        assert_eq!(header.samples.len(), 2);
        let _ = read_frame(&mut good).unwrap();
        write_json(&mut good, &Request::Shutdown).unwrap();
        assert!(handle.shutdown(), "plane must survive an overfull sample");
    }

    #[test]
    fn a_request_decodes_only_from_one_variant_key() {
        for text in [
            r#"{"FetchBatch":{"count":2},"Shutdown":{}}"#,
            r#"{"Shutdown":{},"FetchBatch":{"count":2}}"#,
        ] {
            assert!(Request::from_json(&Json::parse(text).unwrap()).is_err());
        }
    }

    #[test]
    fn garbage_json_is_invalid_data() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"not json").unwrap();
        let mut cur = Cursor::new(buf);
        let err = read_json::<Request>(&mut cur).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
