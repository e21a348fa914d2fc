//! 2-D geometry primitives shared by the whole workspace.
//!
//! All coordinates are in *full-resolution pixel space* of the camera that
//! produced them (see [`crate::presets::CameraPreset`]); the rendered pixel
//! buffer may be downscaled, but bounding boxes and trajectories always live
//! in full-resolution coordinates, mirroring how real detectors report boxes.

/// A point in full-resolution pixel coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    pub x: f32,
    pub y: f32,
}

impl Point {
    /// Creates a point at `(x, y)`.
    pub fn new(x: f32, y: f32) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to `other`.
    pub fn distance(&self, other: &Point) -> f32 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    pub fn lerp(&self, other: &Point, t: f32) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// Component-wise addition.
    pub fn offset(&self, dx: f32, dy: f32) -> Point {
        Point::new(self.x + dx, self.y + dy)
    }

    /// Vector magnitude when the point is used as a displacement.
    pub fn norm(&self) -> f32 {
        (self.x * self.x + self.y * self.y).sqrt()
    }
}

/// An axis-aligned bounding box, `x1 <= x2`, `y1 <= y2`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BBox {
    pub x1: f32,
    pub y1: f32,
    pub x2: f32,
    pub y2: f32,
}

impl BBox {
    /// Creates a box from two corners, normalizing the corner order.
    pub fn new(x1: f32, y1: f32, x2: f32, y2: f32) -> Self {
        Self {
            x1: x1.min(x2),
            y1: y1.min(y2),
            x2: x1.max(x2),
            y2: y1.max(y2),
        }
    }

    /// Creates a box from a center point and full width/height.
    pub fn from_center(center: Point, width: f32, height: f32) -> Self {
        let hw = width.abs() / 2.0;
        let hh = height.abs() / 2.0;
        Self::new(center.x - hw, center.y - hh, center.x + hw, center.y + hh)
    }

    /// Box width (always non-negative).
    pub fn width(&self) -> f32 {
        self.x2 - self.x1
    }

    /// Box height (always non-negative).
    pub fn height(&self) -> f32 {
        self.y2 - self.y1
    }

    /// Box area.
    pub fn area(&self) -> f32 {
        self.width() * self.height()
    }

    /// Center point.
    pub fn center(&self) -> Point {
        Point::new((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)
    }

    /// Aspect ratio `width / height`; returns 0 for degenerate boxes.
    pub fn aspect(&self) -> f32 {
        if self.height() <= f32::EPSILON {
            0.0
        } else {
            self.width() / self.height()
        }
    }

    /// The intersection box, or `None` when the boxes do not overlap.
    pub fn intersection(&self, other: &BBox) -> Option<BBox> {
        let x1 = self.x1.max(other.x1);
        let y1 = self.y1.max(other.y1);
        let x2 = self.x2.min(other.x2);
        let y2 = self.y2.min(other.y2);
        if x1 < x2 && y1 < y2 {
            Some(BBox { x1, y1, x2, y2 })
        } else {
            None
        }
    }

    /// Intersection-over-union in `[0, 1]`.
    pub fn iou(&self, other: &BBox) -> f32 {
        let inter = match self.intersection(other) {
            Some(b) => b.area(),
            None => return 0.0,
        };
        let union = self.area() + other.area() - inter;
        if union <= f32::EPSILON {
            0.0
        } else {
            inter / union
        }
    }

    /// Whether `p` lies inside the box (inclusive edges).
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.x1 && p.x <= self.x2 && p.y >= self.y1 && p.y <= self.y2
    }

    /// Whether `other` lies entirely inside the box.
    pub fn contains_box(&self, other: &BBox) -> bool {
        other.x1 >= self.x1 && other.x2 <= self.x2 && other.y1 >= self.y1 && other.y2 <= self.y2
    }

    /// Distance between box centers.
    pub fn center_distance(&self, other: &BBox) -> f32 {
        self.center().distance(&other.center())
    }

    /// Shifts the box by `(dx, dy)`.
    pub fn translate(&self, dx: f32, dy: f32) -> BBox {
        BBox {
            x1: self.x1 + dx,
            y1: self.y1 + dy,
            x2: self.x2 + dx,
            y2: self.y2 + dy,
        }
    }

    /// Clamps the box to the viewport `[0, w] x [0, h]`; returns `None` if the
    /// clamped box is empty (entirely off screen).
    pub fn clamp_to(&self, w: f32, h: f32) -> Option<BBox> {
        let x1 = self.x1.max(0.0);
        let y1 = self.y1.max(0.0);
        let x2 = self.x2.min(w);
        let y2 = self.y2.min(h);
        if x1 < x2 && y1 < y2 {
            Some(BBox { x1, y1, x2, y2 })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn point_lerp_endpoints() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(5.0, 10.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        let mid = a.lerp(&b, 0.5);
        assert!((mid.x - 3.0).abs() < 1e-6 && (mid.y - 6.0).abs() < 1e-6);
    }

    #[test]
    fn bbox_normalizes_corners() {
        let b = BBox::new(10.0, 20.0, 0.0, 5.0);
        assert_eq!(b.x1, 0.0);
        assert_eq!(b.y1, 5.0);
        assert_eq!(b.x2, 10.0);
        assert_eq!(b.y2, 20.0);
    }

    #[test]
    fn bbox_iou_identical_is_one() {
        let b = BBox::new(0.0, 0.0, 10.0, 10.0);
        assert!((b.iou(&b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn bbox_iou_disjoint_is_zero() {
        let a = BBox::new(0.0, 0.0, 10.0, 10.0);
        let b = BBox::new(20.0, 20.0, 30.0, 30.0);
        assert_eq!(a.iou(&b), 0.0);
    }

    #[test]
    fn bbox_iou_half_overlap() {
        let a = BBox::new(0.0, 0.0, 10.0, 10.0);
        let b = BBox::new(5.0, 0.0, 15.0, 10.0);
        // intersection 50, union 150
        assert!((a.iou(&b) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn bbox_from_center_roundtrip() {
        let b = BBox::from_center(Point::new(50.0, 60.0), 20.0, 10.0);
        assert_eq!(b.center(), Point::new(50.0, 60.0));
        assert!((b.width() - 20.0).abs() < 1e-6);
        assert!((b.height() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn clamp_to_viewport() {
        let b = BBox::new(-10.0, -10.0, 20.0, 20.0);
        let c = b.clamp_to(100.0, 100.0).unwrap();
        assert_eq!(c, BBox::new(0.0, 0.0, 20.0, 20.0));
        let off = BBox::new(-50.0, -50.0, -10.0, -10.0);
        assert!(off.clamp_to(100.0, 100.0).is_none());
    }

    #[test]
    fn contains_points_and_boxes() {
        let b = BBox::new(0.0, 0.0, 10.0, 10.0);
        assert!(b.contains(&Point::new(5.0, 5.0)));
        assert!(!b.contains(&Point::new(11.0, 5.0)));
        assert!(b.contains_box(&BBox::new(1.0, 1.0, 9.0, 9.0)));
        assert!(!b.contains_box(&BBox::new(1.0, 1.0, 11.0, 9.0)));
    }
}
