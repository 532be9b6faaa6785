//! Criterion microbenches of the gateway wire path: the per-request HTTP
//! parse and the per-token SSE + chunked-framing round trip. These run
//! once per live request / token, so they bound the gateway's ceiling
//! independent of the simulator behind it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::io::BufReader;
use windserve_gateway::http::{
    encode_chunk, read_request, HttpRequest, ResponseParser, LAST_CHUNK,
};
use windserve_gateway::sse::{SseEvent, SseParser};

fn http_request_parse(c: &mut Criterion) {
    let mut g = c.benchmark_group("gateway_http");
    let wire = HttpRequest::new(
        "POST",
        "/v1/completions",
        br#"{"prompt_tokens": 256, "max_tokens": 32, "stream": true}"#.to_vec(),
    )
    .encode();
    g.bench_function("parse_completion_request", |b| {
        b.iter(|| {
            read_request(&mut BufReader::new(&wire[..]))
                .unwrap()
                .unwrap()
        })
    });
    g.bench_function("encode_completion_request", |b| {
        b.iter(|| {
            HttpRequest::new(
                "POST",
                "/v1/completions",
                br#"{"prompt_tokens": 256, "max_tokens": 32, "stream": true}"#.to_vec(),
            )
            .encode()
        })
    });
    g.finish();
}

fn sse_token_round_trip(c: &mut Criterion) {
    let mut g = c.benchmark_group("gateway_sse");
    for tokens in [32usize, 512] {
        // Server side: one SSE event per token, each framed as one HTTP
        // chunk — exactly what the SimDriver writes.
        g.bench_function(BenchmarkId::new("encode_stream", tokens), |b| {
            b.iter(|| {
                let mut wire = Vec::with_capacity(tokens * 96);
                for i in 0..tokens {
                    let ev = SseEvent::data(format!(
                        r#"{{"id":"cmpl-1","object":"completion.chunk","token_index":{i},"virtual_time_secs":{}.5}}"#,
                        i
                    ));
                    wire.extend_from_slice(&encode_chunk(&ev.encode()));
                }
                wire.extend_from_slice(LAST_CHUNK);
                wire
            })
        });
        // Client side: chunked-transfer decode + SSE parse, as loadgen does.
        let mut wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        for i in 0..tokens {
            let ev = SseEvent::data(format!(r#"{{"token_index":{i}}}"#));
            wire.extend_from_slice(&encode_chunk(&ev.encode()));
        }
        wire.extend_from_slice(LAST_CHUNK);
        g.bench_function(BenchmarkId::new("decode_stream", tokens), |b| {
            b.iter(|| {
                let mut http = ResponseParser::new();
                let mut sse = SseParser::new();
                let mut n = 0usize;
                for piece in wire.chunks(1460) {
                    http.feed(piece).unwrap();
                    n += sse.feed(&http.take_body()).len();
                }
                assert_eq!(n, tokens);
                n
            })
        });
    }
    g.finish();
}

criterion_group!(benches, http_request_parse, sse_token_round_trip);
criterion_main!(benches);
