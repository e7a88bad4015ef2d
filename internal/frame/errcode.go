package frame

import (
	"strings"
	"time"
)

const (
	// MaxRetryAfter clamps peer-supplied retry-after hints.
	MaxRetryAfter = 5 * time.Minute
	// maxErrCodeLen bounds the code token in a structured suffix.
	maxErrCodeLen = 16

	errCodePrefix = " [pbs:e="
)

// AppendErrCode encodes a structured code (and optional retry-after hint)
// as a suffix on a MsgError string: "msg [pbs:e=busy,ra=250ms]". Legacy
// peers embed the whole string verbatim; current peers strip and parse it.
func AppendErrCode(msg, code string, retryAfter time.Duration) string {
	if code == "" {
		return msg
	}
	msg += errCodePrefix + code
	if retryAfter > 0 {
		msg += ",ra=" + retryAfter.String()
	}
	return msg + "]"
}

func validErrCode(code string) bool {
	if code == "" || len(code) > maxErrCodeLen {
		return false
	}
	for i := 0; i < len(code); i++ {
		c := code[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' {
			return false
		}
	}
	return true
}

// SplitErrCode parses the structured suffix off a MsgError string. It
// returns the bare message plus the code and retry-after hint; a missing
// or malformed suffix yields the input unchanged with an empty code.
func SplitErrCode(s string) (msg, code string, retryAfter time.Duration) {
	i := strings.LastIndex(s, errCodePrefix)
	if i < 0 || !strings.HasSuffix(s, "]") {
		return s, "", 0
	}
	body := s[i+len(errCodePrefix) : len(s)-1]
	c, rest, hasRA := strings.Cut(body, ",")
	if !validErrCode(c) {
		return s, "", 0
	}
	var ra time.Duration
	if hasRA {
		v, ok := strings.CutPrefix(rest, "ra=")
		if !ok {
			return s, "", 0
		}
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return s, "", 0
		}
		ra = min(d, MaxRetryAfter)
	}
	return s[:i], c, ra
}
