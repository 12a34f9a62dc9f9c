package adcorpus

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// SaveJSONL writes the corpus as one JSON group per line, the standard
// interchange format for streaming corpus processing.
func (c *Corpus) SaveJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range c.Groups {
		if err := enc.Encode(&c.Groups[i]); err != nil {
			return fmt.Errorf("adcorpus: save group %d: %w", i, err)
		}
	}
	return bw.Flush()
}
