// Byte-oriented delta compression used by the backward-delta version
// chains (paper §3: "effective storage of many versions of such data
// without copying each individual item; for nodes this is provided by
// backward deltas similar to RCS").
//
// EncodeDelta(base, target) produces a compact script of COPY(offset,
// length)-from-base and ADD(literal-bytes) instructions such that
// ApplyDelta(base, script) == target. Node contents are uninterpreted
// binary at the HAM level, so the encoder works on raw bytes rather than
// lines: the common prefix and suffix are one COPY each, and the middle
// is block-matched against the whole base (xdelta-style).
//
// Script encoding (varints):
//   0x00 <varint len> <len bytes>            ADD
//   0x01 <varint offset> <varint len>        COPY from base
// The script is prefixed with a varint of the target length so Apply
// can validate the result.

#ifndef NEPTUNE_DELTA_BYTE_DELTA_H_
#define NEPTUNE_DELTA_BYTE_DELTA_H_

#include <string>
#include <string_view>

#include "common/result.h"

namespace neptune {
namespace delta {

// Returns a script that transforms `base` into `target`.
std::string EncodeDelta(std::string_view base, std::string_view target);

// Replays `script` against `base`. Fails with Corruption if the script
// is malformed, references bytes outside `base`, or produces a result
// whose length disagrees with the script header.
Result<std::string> ApplyDelta(std::string_view base, std::string_view script);

}  // namespace delta
}  // namespace neptune

#endif  // NEPTUNE_DELTA_BYTE_DELTA_H_
