"""The line rule every text reader shares (``ioutil.data_lines``): blank
lines and ``#`` comments, indented or not, carry no data, and every line
counts toward the line number an error names; and the ``array`` record,
its integer bound, its slice-by-slice write and its run-by-run decode."""

import tracemalloc

import numpy as np
import pytest

from lsgg.datastream import SynthConfig, load_embeddings, save_embeddings, synth_generate
from lsgg.harness import load_comparison_csv, load_config_file
from lsgg.ioutil import (UNPACK_RUN, WRITE_SLICE, exact_ints, pack_floats, read_array,
                         unpack_floats)
from lsgg.metrics import load_gt, load_predictions
from lsgg.prompt_pool import deserialize_pool
from lsgg.rng import SeededRng
from lsgg.scorer import load_vocab
from lsgg.trainer import CHECKPOINT_ARRAYS, load_checkpoint

from conftest import array_line


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
    "embeddings": (load_embeddings, saved_embeddings, array_line("pred", np.zeros(2))),
    "checkpoint": (load_checkpoint,
                   ["LSGG-CKPT 2", "pool p.lsgg", *(f"array {n} 0" for n in CHECKPOINT_ARRAYS)],
                   "array foo 3 AAAA"),
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
    read_array(arrays, 1, array_line("t", np.array([7.0])).split(None, 1)[1])
    assert arrays["t"].shape == (1,) and arrays["t"][0] == 7.0
    for scalar in (np.float64(7.0), np.array(7.0), 7):
        with pytest.raises(ValueError, match="'t' is 0-d"):
            array_line("t", scalar)


def test_array_record_refuses_integers_it_cannot_write_exactly():
    # the bound exact_ints reads back; compared as values, so -2**63 (where
    # np.abs wraps) is refused too
    for value in (2**53 - 1, -(2**53 - 1)):
        arrays = {}
        read_array(arrays, 1, array_line("ids", np.array([0, value])).split(None, 1)[1])
        assert exact_ints(arrays["ids"]).tolist() == [0, value]
    for arr in (np.array([0, 2**53]), np.array([-(2**53), 0]), np.array([2**53 + 1]),
                np.array([2**63 - 1]), np.array([-2**63]), np.array([2**64 - 1], dtype=np.uint64)):
        with pytest.raises(ValueError, match=r"'ids' holds an integer of magnitude 2\*\*53"):
            array_line("ids", arr)


def bit_patterns(n: int) -> np.ndarray:
    """``n`` float64 values of random bits: NaN payloads, infinities,
    subnormals and negative zeros among them."""
    return SeededRng(n)._u64_block(n).view(np.float64)


def test_array_record_written_by_slices_equals_the_one_string_form():
    cases = [bit_patterns(n) for n in (0, 1, WRITE_SLICE - 1, WRITE_SLICE, WRITE_SLICE + 1)]
    cases += [np.zeros((0, 4)), bit_patterns(3 * WRITE_SLICE + 3).reshape(-1, 3),
              np.arange(-WRITE_SLICE, WRITE_SLICE + 2).reshape(2, -1)]  # converted a slice each
    for arr in cases:
        shape = ",".join(map(str, arr.shape))
        assert array_line("a", arr) == f"array a {shape} {pack_floats(arr)}".rstrip(), arr.shape


def test_save_embeddings_holds_one_slice_of_text_at_a_time(tmp_path):
    # the default dataset's feature arrays are 14.7 MiB; a whole record's text
    # would be 6.5 MiB
    data, _ = synth_generate(SynthConfig(), SeededRng(0))
    tracemalloc.start()
    try:
        save_embeddings(data, tmp_path / "default.emb")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_unpack_floats_round_trips_across_run_boundaries():
    per_run = UNPACK_RUN // 4 * 3 // 8  # float64 values in one run's bytes
    for n in (0, 1, 2, per_run - 1, per_run, per_run + 1, 2 * per_run + 1, 3 * per_run - 2):
        arr = bit_patterns(n)
        back = unpack_floats(pack_floats(arr), (n,))
        assert back.dtype == np.float64 and back.flags.writeable
        assert np.array_equal(back.view(np.uint64), arr.view(np.uint64)), n
    arr = bit_patterns(2 * per_run + 6).reshape(-1, 3)
    assert np.array_equal(unpack_floats(pack_floats(arr), arr.shape).view(np.uint64),
                          arr.view(np.uint64))


def test_unpack_floats_refuses_what_a_whole_text_decode_refuses():
    n = 2 * (UNPACK_RUN // 4 * 3 // 8) + 1  # three runs, the last one padded
    text = pack_floats(bit_patterns(n))
    assert len(text) > 2 * UNPACK_RUN and text.endswith("=")
    at_end_of_first_run = text[:UNPACK_RUN - 1] + "=" + text[UNPACK_RUN:]
    cases = {
        "a character outside the alphabet": text[:UNPACK_RUN + 7] + "!" + text[UNPACK_RUN + 8:],
        "whitespace": text[:5] + " " + text[6:],
        "'=' ending the first run": at_end_of_first_run,
        "'=' inside the last run": text[:-9] + "=" + text[-8:],
        "a length that is not a multiple of 4": text[:-5] + text[-4:],
    }
    for what, bad in cases.items():
        with pytest.raises(ValueError, match="bad base64 array payload"):
            unpack_floats(bad, (n,))
            pytest.fail(what)
    for shape in ((n - 1,), (n + 1,), (n, 2)):
        with pytest.raises(ValueError, match=f"has {8 * n} bytes, expected"):
            unpack_floats(text, shape)
    with pytest.raises(ValueError, match=f"has {8 * n - 3} bytes"):  # a quartet less
        unpack_floats(text[:UNPACK_RUN] + text[UNPACK_RUN + 4:], (n,))
    with pytest.raises(ValueError, match="has 6 bytes"):  # not a whole float64
        unpack_floats(pack_floats([1.0])[:8], (1,))
