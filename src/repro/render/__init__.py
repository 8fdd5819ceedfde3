"""Rendering: SVG and plain-text views of diagrams."""

from .ascii_art import render_ascii
from .svg import render_svg, save_svg

__all__ = ["render_ascii", "render_svg", "save_svg"]
