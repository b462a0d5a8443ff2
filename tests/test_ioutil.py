"""The line rule every text reader shares (``ioutil.data_lines``): blank
lines and ``#`` comments, indented or not, carry no data, and every line
counts toward the line number an error names."""

import pytest

from lsgg.datastream import load_embeddings
from lsgg.harness import load_comparison_csv, load_config_file
from lsgg.metrics import load_gt, load_predictions
from lsgg.scorer import load_vocab
from lsgg.trainer import load_checkpoint

# reader -> (valid lines before the record, the malformed record)
READERS = {
    "predictions": (load_predictions, ["1 1 2 3 4 0.5 7"], "1 2 2 3 4 x 8"),
    "gt": (load_gt, ["1 7 2 3 4"], "1 8 2 3"),
    "vocab": (load_vocab, ["0 on"], "x near"),
    "config": (load_config_file, ["n_stages=3"], "n_t 5"),
    "comparison": (load_comparison_csv, ["config,seeds,R@50_mean", "full,1,1.5"], "w-1k,1"),
    "embeddings": (load_embeddings, ["LSGG-EMB 1 1 1 1 2 2", "0 0 1 1 0 - 0.1 0.2 0.3 0.4"],
                   "0 0 1 5 0 - 0.1 0.2 0.3 0.4"),
    "checkpoint": (load_checkpoint, ["LSGG-CKPT 2", "pool p.lsgg"], "array foo 3 AAAA"),
}


@pytest.mark.parametrize("name", list(READERS))
def test_readers_skip_comments_and_blanks_and_name_the_record_line(tmp_path, name):
    reader, valid, bad = READERS[name]
    lines = ["# a comment", "    # an indented comment", "", *valid, "", bad]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"line {len(lines)}:"):
        reader(path)
    path.write_text("\n".join(lines[:-1]) + "\n")
    reader(path)  # the same file without its last line reads
