import pytest

import render_oracle
from groundlab.render import render_patch_svg
from groundlab.robinson import ORIENTATIONS, build_macro_tile, build_tileset
from groundlab.tiles import InputError, Patch


@pytest.fixture(scope="module")
def robinson():
    return build_tileset()


@pytest.mark.parametrize("q", ORIENTATIONS)
@pytest.mark.parametrize("scale", [1, 2, 3, 4, 5])
def test_svg_bytes_match_per_cell_oracle(robinson, scale, q):
    patch = build_macro_tile(scale, q)
    for cell in (1, 7, 24, 33):
        for arrows in (True, False):
            assert render_patch_svg(robinson, patch, cell, arrows) == \
                render_oracle.render_patch_svg(robinson, patch, cell, arrows)


def test_scale_6_svg_matches_oracle(robinson):
    patch = build_macro_tile(6, "sw")
    assert render_patch_svg(robinson, patch) == \
        render_oracle.render_patch_svg(robinson, patch)


def test_holes_and_repeated_ids_match_oracle(robinson):
    ids = [t.id for t in robinson.tiles]
    rows = [[ids[(3 * x + 5 * y) % 7] if (x + y) % 3 else None for x in range(6)]
            for y in range(4)]
    patch = Patch.from_ids(rows)
    assert render_patch_svg(robinson, patch, 9) == \
        render_oracle.render_patch_svg(robinson, patch, 9)


@pytest.mark.parametrize("cell", [0, -4])
def test_cell_below_one_pixel_is_refused(robinson, cell):
    with pytest.raises(InputError, match="cell"):
        render_patch_svg(robinson, build_macro_tile(1), cell)


def test_unknown_tile_id_is_input_error(robinson):
    with pytest.raises(InputError, match="unknown tile id"):
        render_patch_svg(robinson, Patch.from_ids([["no-such-tile"]]))
