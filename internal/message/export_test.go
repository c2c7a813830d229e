package message

// CodecSamples hands the round-trip table to the external tests.
var CodecSamples = codecSamples
