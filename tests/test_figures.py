import pytest

from nonhaus.errors import NonHausError
from nonhaus.figures import SvgScene, render_figure


class TestRenderFigure:
    def test_default_scene_elements(self):
        data = render_figure(SvgScene(k=3)).decode()
        assert data.startswith("<svg")
        assert data.count('class="branch"') == 3
        assert data.count('class="origin"') == 3
        assert data.count('class="zpoint"') == 1
        assert data.count('class="proj"') == 3

    def test_byte_identical(self):
        assert render_figure(SvgScene(k=3)) == render_figure(SvgScene(k=3))
        scene = SvgScene(k=4, lifts=True)
        assert render_figure(scene) == render_figure(scene)

    def test_lift_annotations(self):
        data = render_figure(SvgScene(k=3, lifts=True)).decode()
        assert data.count('class="lift"') == 3

    def test_k_validated(self):
        with pytest.raises(NonHausError, match="need at least 2 branches, got k=1"):
            SvgScene(k=1)

    def test_pure_ascii(self):
        render_figure(SvgScene(k=6)).decode("ascii")
