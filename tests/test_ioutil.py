"""The line rule every text reader shares (``ioutil.data_lines``): blank
lines and ``#`` comments, indented or not, carry no data, and every line
counts toward the line number an error names; and the ``array`` record."""

import numpy as np
import pytest

from lsgg.datastream import SynthConfig, load_embeddings, save_embeddings, synth_generate
from lsgg.harness import load_comparison_csv, load_config_file
from lsgg.ioutil import array_record, read_array
from lsgg.metrics import load_gt, load_predictions
from lsgg.prompt_pool import deserialize_pool
from lsgg.rng import SeededRng
from lsgg.scorer import load_vocab
from lsgg.trainer import load_checkpoint


def saved_embeddings(tmp_path):
    """The lines of a saved two-row dataset."""
    cfg = SynthConfig(n_pred=2, n_groups=1, n_obj=2, d_c=2, d_r=2, d_o=2, total_n=2)
    path = tmp_path / "saved.emb"
    save_embeddings(synth_generate(cfg, SeededRng(0))[0], path)
    return path.read_text().splitlines()


# reader -> (valid lines before the record, or a function of tmp_path giving
# them; the malformed record)
READERS = {
    "predictions": (load_predictions, ["1 1 2 3 4 0.5 7"], "1 2 2 3 4 x 8"),
    "gt": (load_gt, ["1 7 2 3 4"], "1 8 2 3"),
    "vocab": (load_vocab, ["0 on"], "x near"),
    "config": (load_config_file, ["n_stages=3"], "n_t 5"),
    "comparison": (load_comparison_csv, ["config,seeds,R@50_mean", "full,1,1.5"], "w-1k,1"),
    "embeddings": (load_embeddings, saved_embeddings, array_record("pred", np.zeros(2)).rstrip()),
    "checkpoint": (load_checkpoint, ["LSGG-CKPT 2", "pool p.lsgg"], "array foo 3 AAAA"),
    "pool": (deserialize_pool,  # one entry, n_p = d_tok = d_c = 1, no exemplar
             ["LSGG-POOL 2 1", "array keys 1,1 AAAAAAAA8D8=", "array prompts 1,1,1 AAAAAAAA8D8=",
              "array seen 1 AAAAAAAAAAA=", "array store_len 1 AAAAAAAAAAA=", "array labels 0"],
             "array seen 1 AAAA"),
}


@pytest.mark.parametrize("name", list(READERS))
def test_readers_skip_comments_and_blanks_and_name_the_record_line(tmp_path, name):
    reader, valid, bad = READERS[name]
    if callable(valid):
        valid = valid(tmp_path)
    lines = ["# a comment", "    # an indented comment", "", *valid, "", bad]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"line {len(lines)}:"):
        reader(path)
    path.write_text("\n".join(lines[:-1]) + "\n")
    reader(path)  # the same file without its last line reads


def test_array_record_refuses_a_0d_array_that_it_could_not_read_back():
    # a scalar such as a step count is stored with shape (1,)
    arrays = {}
    read_array(arrays, 1, array_record("t", np.array([7.0])).split(None, 1)[1])
    assert arrays["t"].shape == (1,) and arrays["t"][0] == 7.0
    for scalar in (np.float64(7.0), np.array(7.0), 7):
        with pytest.raises(ValueError, match="'t' is 0-d"):
            array_record("t", scalar)
